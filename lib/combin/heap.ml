type 'a t = {
  mutable keys : float array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { keys = Array.make 16 0.0; values = [||]; size = 0 }

let is_empty h = h.size = 0
let size h = h.size

let grow h v =
  if h.size = Array.length h.keys then begin
    let cap = 2 * Array.length h.keys in
    let keys = Array.make cap 0.0 in
    Array.blit h.keys 0 keys 0 h.size;
    h.keys <- keys
  end;
  if h.size >= Array.length h.values then begin
    let cap = max 16 (2 * max 1 (Array.length h.values)) in
    let values = Array.make cap v in
    Array.blit h.values 0 values 0 h.size;
    h.values <- values
  end

let swap h i j =
  let tk = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- tk;
  let tv = h.values.(i) in
  h.values.(i) <- h.values.(j);
  h.values.(j) <- tv

let push h key v =
  grow h v;
  h.keys.(h.size) <- key;
  h.values.(h.size) <- v;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let peek h = if h.size = 0 then None else Some (h.keys.(0), h.values.(0))

let pop h =
  if h.size = 0 then None
  else begin
    let top = (h.keys.(0), h.values.(0)) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.values.(0) <- h.values.(h.size);
      (* sift down *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
        if !smallest = !i then continue_ := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done
    end;
    Some top
  end
