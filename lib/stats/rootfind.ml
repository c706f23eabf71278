let brent ?(tol = 1e-13) ?(max_iter = 100) f ~lo ~hi =
  let a = ref lo and b = ref hi in
  let fa = ref (f !a) and fb = ref (f !b) in
  if !fa = 0. then !a
  else if !fb = 0. then !b
  else if !fa *. !fb > 0. then invalid_arg "Rootfind.brent: interval does not bracket a root"
  else begin
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref nan in
    let iter = ref 0 in
    while Float.is_nan !result && !iter < max_iter do
      incr iter;
      if abs_float !fc < abs_float !fb then begin
        a := !b; b := !c; c := !a;
        fa := !fb; fb := !fc; fc := !fa
      end;
      let tol1 = (2. *. epsilon_float *. abs_float !b) +. (0.5 *. tol) in
      let xm = 0.5 *. (!c -. !b) in
      if abs_float xm <= tol1 || !fb = 0. then result := !b
      else begin
        if abs_float !e >= tol1 && abs_float !fa > abs_float !fb then begin
          (* Attempt inverse quadratic (or secant) interpolation. *)
          let s = !fb /. !fa in
          let p, q =
            if !a = !c then
              let p = 2. *. xm *. s in
              (p, 1. -. s)
            else begin
              let q = !fa /. !fc and r = !fb /. !fc in
              let p = s *. ((2. *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.))) in
              let q = (q -. 1.) *. (r -. 1.) *. (s -. 1.) in
              (p, q)
            end
          in
          let p, q = if p > 0. then (p, -.q) else (-.p, q) in
          let min1 = (3. *. xm *. q) -. abs_float (tol1 *. q) in
          let min2 = abs_float (!e *. q) in
          if 2. *. p < Float.min min1 min2 then begin
            e := !d;
            d := p /. q
          end
          else begin
            d := xm;
            e := xm
          end
        end
        else begin
          d := xm;
          e := xm
        end;
        a := !b;
        fa := !fb;
        if abs_float !d > tol1 then b := !b +. !d
        else b := !b +. (if xm >= 0. then tol1 else -.tol1);
        fb := f !b;
        if (!fb > 0. && !fc > 0.) || (!fb < 0. && !fc < 0.) then begin
          c := !a;
          fc := !fa;
          d := !b -. !a;
          e := !d
        end
      end
    done;
    if Float.is_nan !result then !b else !result
  end
