type row = {
  n : int;
  r : int;
  s : int;
  k : int;
  b : int;
  combo_lb : int;
  combo_avail : int;
  random_avail : int;
  copyset_avail : int;
  copyset_wide_avail : int;
}

let attack_avail inst layout =
  Placement.Instance.avail inst layout (Placement.Instance.attack inst layout)

let compute () =
  List.map
    (fun (n, r, s, k, b) ->
      let inst = Placement.Instance.make ~b ~r ~s ~n ~k () in
      let rng = Combin.Rng.create (0xC0 + n + k) in
      let cfg = Placement.Instance.combo_config inst in
      let combo_layout = Placement.Instance.combo_layout ~config:cfg inst in
      let random_layout = Placement.Instance.random_layout ~rng inst in
      let narrow = snd (Placement.Instance.copyset ~rng inst) in
      let wide =
        snd (Placement.Instance.copyset ~rng ~scatter_width:(4 * (r - 1)) inst)
      in
      {
        n;
        r;
        s;
        k;
        b;
        combo_lb = cfg.Placement.Combo.lb;
        combo_avail = attack_avail inst combo_layout;
        random_avail = attack_avail inst random_layout;
        copyset_avail = attack_avail inst narrow;
        copyset_wide_avail = attack_avail inst wide;
      })
    [
      (31, 3, 2, 3, 600);
      (31, 3, 2, 4, 600);
      (31, 3, 3, 4, 600);
      (71, 3, 2, 4, 2400);
      (71, 3, 3, 5, 2400);
      (71, 5, 3, 5, 1200);
    ]

let print fmt =
  Format.fprintf fmt
    "Baseline: worst-case availability of copyset replication vs Combo/Random@.";
  Format.fprintf fmt
    "(copyset = scatter width 2(r-1); copyset-wide = 4(r-1))@.";
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.n;
          string_of_int r.r;
          string_of_int r.s;
          string_of_int r.k;
          string_of_int r.b;
          string_of_int r.combo_lb;
          string_of_int r.combo_avail;
          string_of_int r.random_avail;
          string_of_int r.copyset_avail;
          string_of_int r.copyset_wide_avail;
        ])
      (compute ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:
         [ "n"; "r"; "s"; "k"; "b"; "combo lb"; "combo"; "random"; "copyset"; "copyset-wide" ]
       ~rows)
