type t = {
  n : int;
  x : int array;
  counts : int array;  (* counts.(d) = occurrences of difference d, d in 1..n-1 *)
  mutable cost : int;  (* sum over d of max(0, counts.(d) - 1) *)
}

let name = "all-interval"
let size t = t.n
let config t = t.x
let cost t = t.cost

let rebuild t =
  Array.fill t.counts 0 t.n 0;
  t.cost <- 0;
  for i = 0 to t.n - 2 do
    let d = abs (t.x.(i) - t.x.(i + 1)) in
    t.counts.(d) <- t.counts.(d) + 1;
    if t.counts.(d) > 1 then t.cost <- t.cost + 1
  done

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "All_interval.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 3 then invalid_arg "All_interval.create: n must be >= 3";
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      counts = Array.make n 0;
      cost = 0;
    }
  in
  rebuild t;
  t

let surplus t d =
  let c = t.counts.(d) in
  if c > 1 then c - 1 else 0

let var_error t i =
  let e = ref 0 in
  if i > 0 then e := !e + surplus t (abs (t.x.(i - 1) - t.x.(i)));
  if i < t.n - 1 then e := !e + surplus t (abs (t.x.(i) - t.x.(i + 1)));
  !e

(* Difference [i] (between positions [i] and [i+1]) is the right term of
   variable [i] and the left term of variable [i+1], so each surplus is read
   once and carried over. *)
let errors t buf =
  let x = t.x and left = ref 0 in
  for i = 0 to t.n - 2 do
    let right = surplus t (abs (x.(i) - x.(i + 1))) in
    buf.(i) <- !left + right;
    left := right
  done;
  buf.(t.n - 1) <- !left

(* Swapping positions [lo < hi] changes the differences at [lo-1], [lo],
   [hi-1] and [hi] (when in range).  Only [lo] and [hi-1] can coincide, when
   [hi = lo + 1]: that difference is scored once, as [lo], and keeps its
   value.  The old values are removed from [counts] and the new ones added,
   tracking the cost delta; unless committing, the counts are then rolled
   back. *)
let eval_swap t lo hi ~commit =
  let x = t.x and counts = t.counts in
  let xlo = x.(lo) and xhi = x.(hi) in
  let has1 = lo > 0 and has3 = hi - 1 <> lo and has4 = hi < t.n - 1 in
  let old1 = if has1 then abs (x.(lo - 1) - xlo) else 0 in
  let new1 = if has1 then abs (x.(lo - 1) - xhi) else 0 in
  let old2 = abs (xlo - x.(lo + 1)) in
  let new2 = if has3 then abs (xhi - x.(lo + 1)) else old2 in
  let old3 = if has3 then abs (x.(hi - 1) - xhi) else 0 in
  let new3 = if has3 then abs (x.(hi - 1) - xlo) else 0 in
  let old4 = if has4 then abs (xhi - x.(hi + 1)) else 0 in
  let new4 = if has4 then abs (xlo - x.(hi + 1)) else 0 in
  let delta = ref 0 in
  if has1 then delta := !delta + Surplus.remove counts old1;
  delta := !delta + Surplus.remove counts old2;
  if has3 then delta := !delta + Surplus.remove counts old3;
  if has4 then delta := !delta + Surplus.remove counts old4;
  if has1 then delta := !delta + Surplus.add counts new1;
  delta := !delta + Surplus.add counts new2;
  if has3 then delta := !delta + Surplus.add counts new3;
  if has4 then delta := !delta + Surplus.add counts new4;
  let new_cost = t.cost + !delta in
  if commit then begin
    t.cost <- new_cost;
    x.(lo) <- xhi;
    x.(hi) <- xlo
  end
  else begin
    if has1 then (counts.(new1) <- counts.(new1) - 1; counts.(old1) <- counts.(old1) + 1);
    counts.(new2) <- counts.(new2) - 1;
    counts.(old2) <- counts.(old2) + 1;
    if has3 then (counts.(new3) <- counts.(new3) - 1; counts.(old3) <- counts.(old3) + 1);
    if has4 then (counts.(new4) <- counts.(new4) - 1; counts.(old4) <- counts.(old4) + 1)
  end;
  new_cost

let cost_after_swap t i j =
  if i = j then t.cost else eval_swap t (Int.min i j) (Int.max i j) ~commit:false

let do_swap t i j = if i <> j then ignore (eval_swap t (Int.min i j) (Int.max i j) ~commit:true)

(* One scan for every partner of culprit [i], on the same plan as
   [Costas.best_partners] with a single row of differences: the culprit's
   (at most two) differences leave [counts] once per scan; per partner, its
   differences that do not join it to the culprit leave, the new ones
   arrive and [counts] is rolled back.  The cost is a function of [counts]
   alone, so each cost equals [cost_after_swap t i j] exactly.  The
   culprit's differences are restored at the end. *)
let best_partners t i buf =
  let n = t.n and x = t.x and counts = t.counts in
  let xi = x.(i) in
  let has_cl = i > 0 and has_cr = i < n - 1 in
  let old_cl = if has_cl then abs (x.(i - 1) - xi) else 0 in
  let old_cr = if has_cr then abs (xi - x.(i + 1)) else 0 in
  let removed = ref 0 in
  if has_cl then removed := !removed + Surplus.remove counts old_cl;
  if has_cr then removed := !removed + Surplus.remove counts old_cr;
  let cost0 = t.cost + !removed in
  let best = ref max_int and k = ref 0 in
  for j = 0 to n - 1 do
    if j <> i then begin
      let xj = x.(j) in
      let has_l = j > 0 && j - 1 <> i and has_r = j < n - 1 && j + 1 <> i in
      let old_l = if has_l then abs (x.(j - 1) - xj) else 0 in
      let new_l = if has_l then abs (x.(j - 1) - xi) else 0 in
      let old_r = if has_r then abs (xj - x.(j + 1)) else 0 in
      let new_r = if has_r then abs (xi - x.(j + 1)) else 0 in
      let new_cl =
        if not has_cl then 0 else if i - 1 = j then abs (xj - xi) else abs (x.(i - 1) - xj)
      in
      let new_cr =
        if not has_cr then 0 else if i + 1 = j then abs (xi - xj) else abs (xj - x.(i + 1))
      in
      let r = ref 0 in
      if has_l then r := !r + Surplus.remove counts old_l;
      if has_r then r := !r + Surplus.remove counts old_r;
      if has_cl then r := !r + Surplus.add counts new_cl;
      if has_cr then r := !r + Surplus.add counts new_cr;
      if has_l then r := !r + Surplus.add counts new_l;
      if has_r then r := !r + Surplus.add counts new_r;
      if has_l then (counts.(new_l) <- counts.(new_l) - 1; counts.(old_l) <- counts.(old_l) + 1);
      if has_r then (counts.(new_r) <- counts.(new_r) - 1; counts.(old_r) <- counts.(old_r) + 1);
      if has_cl then counts.(new_cl) <- counts.(new_cl) - 1;
      if has_cr then counts.(new_cr) <- counts.(new_cr) - 1;
      let c = cost0 + !r in
      if c < !best then begin
        best := c;
        buf.(1) <- j;
        k := 1
      end
      else if c = !best then begin
        incr k;
        buf.(!k) <- j
      end
    end
  done;
  if has_cl then counts.(old_cl) <- counts.(old_cl) + 1;
  if has_cr then counts.(old_cr) <- counts.(old_cr) + 1;
  buf.(0) <- !k;
  !best

let check x =
  let n = Array.length x in
  n >= 3
  && begin
       let seen_val = Array.make n false and seen_d = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen_val.(v) then ok := false else seen_val.(v) <- true)
         x;
       if !ok then
         for i = 0 to n - 2 do
           let d = abs (x.(i) - x.(i + 1)) in
           if d = 0 || seen_d.(d) then ok := false else seen_d.(d) <- true
         done;
       !ok
     end

let is_solution t = check t.x

let pack n =
  Lv_search.Csp.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let size = size
        let set_config = set_config
        let config = config
        let cost = cost
        let var_error = var_error
        let errors = errors
        let cost_after_swap = cost_after_swap
        let best_partners = best_partners
        let do_swap = do_swap
        let is_solution = is_solution
      end),
      create n )
