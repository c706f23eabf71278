type point = { runtime : float; probability : float }

let sorted_copy xs =
  if Array.length xs = 0 then invalid_arg "Ttt: empty sample";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Ttt: sample contains a non-finite value")
    xs;
  let s = Array.copy xs in
  (* Float.compare's order: the polymorphic compare ranks NaN
     unpredictably, which would scramble the cumulative-probability axis. *)
  Lv_stats.Float_sort.sort s;
  s

let points xs =
  let s = sorted_copy xs in
  let n = float_of_int (Array.length s) in
  Array.to_list
    (Array.mapi
       (fun i t -> { runtime = t; probability = (float_of_int i +. 0.5) /. n })
       s)

let qq xs (d : Lv_stats.Distribution.t) =
  List.map
    (fun { runtime; probability } -> (d.Lv_stats.Distribution.quantile probability, runtime))
    (points xs)

let qq_correlation xs d =
  let pairs = qq xs d in
  let n = float_of_int (List.length pairs) in
  let sx = ref 0. and sy = ref 0. in
  List.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y)
    pairs;
  let mx = !sx /. n and my = !sy /. n in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  List.iter
    (fun (x, y) ->
      let dx = x -. mx and dy = y -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    pairs;
  if !sxx <= 0. || !syy <= 0. then 0. else !sxy /. sqrt (!sxx *. !syy)

let render xs =
  let width = 50 in
  let s = sorted_copy xs in
  let n = Array.length s in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "time-to-target (cumulative probability of success by time t)\n";
  let deciles = Int.min 10 n in
  for k = 1 to deciles do
    let i = (k * n / deciles) - 1 in
    let p = float_of_int (i + 1) /. float_of_int n in
    let bar = int_of_float (float_of_int width *. p) in
    Buffer.add_string buf
      (Printf.sprintf "t <= %12.4g  p=%4.2f |%s\n" s.(i) p (String.make bar '='))
  done;
  Buffer.contents buf

let report xs fits =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render xs);
  List.iter
    (fun (f : Fit.fitted) ->
      Printf.bprintf buf "Q-Q straightness vs %-28s r = %.4f%s\n"
        (Lv_stats.Distribution.to_string f.Fit.dist)
        (qq_correlation xs f.Fit.dist)
        (if f.Fit.ks.Lv_stats.Kolmogorov.accept then "" else "   (KS rejected)"))
    fits;
  Buffer.contents buf
