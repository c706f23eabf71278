type t = {
  n : int;
  x : int array;          (* permutation of 0 .. n-1 *)
  counts : int array;     (* counts.((d-1) * width + v + n - 1): occurrences
                             of difference value v in triangle row d *)
  width : int;            (* 2n - 1 possible difference values per row *)
  mutable cost : int;
  err : int array;        (* per-variable projected error, kept up to date *)
}

let name = "costas-array"
let size t = t.n
let config t = t.x
let cost t = t.cost

let idx t d v = ((d - 1) * t.width) + v + t.n - 1

let rebuild_errors t =
  Array.fill t.err 0 t.n 0;
  for d = 1 to t.n - 1 do
    for a = 0 to t.n - 1 - d do
      let v = t.x.(a + d) - t.x.(a) in
      let c = t.counts.(idx t d v) in
      if c > 1 then begin
        (* Both endpoints of a duplicated difference carry its surplus. *)
        t.err.(a) <- t.err.(a) + (c - 1);
        t.err.(a + d) <- t.err.(a + d) + (c - 1)
      end
    done
  done

let rebuild t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.cost <- 0;
  for d = 1 to t.n - 1 do
    for a = 0 to t.n - 1 - d do
      let v = t.x.(a + d) - t.x.(a) in
      let k = idx t d v in
      t.counts.(k) <- t.counts.(k) + 1;
      if t.counts.(k) > 1 then t.cost <- t.cost + 1
    done
  done;
  rebuild_errors t

let set_config t cfg =
  if Array.length cfg <> t.n then invalid_arg "Costas.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.n;
  rebuild t

let create n =
  if n < 3 then invalid_arg "Costas.create: n must be >= 3";
  let width = (2 * n) - 1 in
  let t =
    {
      n;
      x = Array.init n (fun i -> i);
      counts = Array.make ((n - 1) * width) 0;
      width;
      cost = 0;
      err = Array.make n 0;
    }
  in
  rebuild t;
  t

let var_error t i = t.err.(i)
let errors t buf = Array.blit t.err 0 buf 0 t.n

(* Swapping positions [lo < hi] changes, in each triangle row [d], the pairs
   whose left end is [lo-d], [lo], [hi-d] or [hi] (when in range).  Only
   [lo] and [hi-d] can coincide, when [hi - lo = d]: that pair (lo, hi) is
   scored once, as pair [lo], with both ends swapped.  Rows own disjoint
   ranges of [counts], so each row removes its old differences, adds the
   new ones and, unless committing, rolls itself back before the next. *)
let eval_swap t lo hi ~commit =
  let n = t.n and x = t.x and counts = t.counts in
  let xlo = x.(lo) and xhi = x.(hi) in
  let delta = ref 0 in
  for d = 1 to n - 1 do
    let base = ((d - 1) * t.width) + n - 1 in
    let has1 = lo - d >= 0 and has2 = lo + d < n in
    let has3 = hi - d >= 0 && hi - d <> lo and has4 = hi + d < n in
    let old1 = if has1 then base + xlo - x.(lo - d) else 0 in
    let new1 = if has1 then base + xhi - x.(lo - d) else 0 in
    let old2 = if has2 then base + x.(lo + d) - xlo else 0 in
    let new2 =
      if not has2 then 0 else if lo + d = hi then base + xlo - xhi else base + x.(lo + d) - xhi
    in
    let old3 = if has3 then base + xhi - x.(hi - d) else 0 in
    let new3 = if has3 then base + xlo - x.(hi - d) else 0 in
    let old4 = if has4 then base + x.(hi + d) - xhi else 0 in
    let new4 = if has4 then base + x.(hi + d) - xlo else 0 in
    let r = ref 0 in
    if has1 then r := !r + Surplus.remove counts old1;
    if has2 then r := !r + Surplus.remove counts old2;
    if has3 then r := !r + Surplus.remove counts old3;
    if has4 then r := !r + Surplus.remove counts old4;
    if has1 then r := !r + Surplus.add counts new1;
    if has2 then r := !r + Surplus.add counts new2;
    if has3 then r := !r + Surplus.add counts new3;
    if has4 then r := !r + Surplus.add counts new4;
    delta := !delta + !r;
    if not commit then begin
      if has1 then (counts.(new1) <- counts.(new1) - 1; counts.(old1) <- counts.(old1) + 1);
      if has2 then (counts.(new2) <- counts.(new2) - 1; counts.(old2) <- counts.(old2) + 1);
      if has3 then (counts.(new3) <- counts.(new3) - 1; counts.(old3) <- counts.(old3) + 1);
      if has4 then (counts.(new4) <- counts.(new4) - 1; counts.(old4) <- counts.(old4) + 1)
    end
  done;
  let new_cost = t.cost + !delta in
  if commit then begin
    t.cost <- new_cost;
    x.(lo) <- xhi;
    x.(hi) <- xlo;
    rebuild_errors t
  end;
  new_cost

let cost_after_swap t i j =
  if i = j then t.cost else eval_swap t (Int.min i j) (Int.max i j) ~commit:false

let do_swap t i j = if i <> j then ignore (eval_swap t (Int.min i j) (Int.max i j) ~commit:true)

(* One scan for every partner of culprit [i].  Swapping [i] with [j]
   replaces, in each triangle row [d], the pairs through [i] and those
   through [j]; the pair joining them (when [|i - j| = d]) is one pair,
   counted as the culprit's.  The culprit's pairs leave [counts] once per
   scan.  Per partner and row, the partner's other pairs leave, the (at most
   four) new differences arrive and the row is rolled back.  The cost is a
   function of [counts] alone, so these surplus changes sum to the same
   total as [eval_swap]'s, and each cost equals [cost_after_swap t i j]
   exactly.  The culprit's pairs are restored at the end. *)
let best_partners t i buf =
  let n = t.n and x = t.x and counts = t.counts and w = t.width in
  let xi = x.(i) in
  let removed = ref 0 in
  for d = 1 to n - 1 do
    let base = ((d - 1) * w) + n - 1 in
    if i - d >= 0 then removed := !removed + Surplus.remove counts (base + xi - x.(i - d));
    if i + d < n then removed := !removed + Surplus.remove counts (base + x.(i + d) - xi)
  done;
  let cost0 = t.cost + !removed in
  let best = ref max_int and k = ref 0 in
  for j = 0 to n - 1 do
    if j <> i then begin
      let xj = x.(j) in
      let delta = ref 0 in
      for d = 1 to n - 1 do
        let base = ((d - 1) * w) + n - 1 in
        let has_l = j - d >= 0 && j - d <> i and has_r = j + d < n && j + d <> i in
        let has_cl = i - d >= 0 and has_cr = i + d < n in
        let old_l = if has_l then base + xj - x.(j - d) else 0 in
        let new_l = if has_l then base + xi - x.(j - d) else 0 in
        let old_r = if has_r then base + x.(j + d) - xj else 0 in
        let new_r = if has_r then base + x.(j + d) - xi else 0 in
        let new_cl =
          if not has_cl then 0 else if i - d = j then base + xj - xi else base + xj - x.(i - d)
        in
        let new_cr =
          if not has_cr then 0 else if i + d = j then base + xi - xj else base + x.(i + d) - xj
        in
        let r = ref 0 in
        if has_l then r := !r + Surplus.remove counts old_l;
        if has_r then r := !r + Surplus.remove counts old_r;
        if has_cl then r := !r + Surplus.add counts new_cl;
        if has_cr then r := !r + Surplus.add counts new_cr;
        if has_l then r := !r + Surplus.add counts new_l;
        if has_r then r := !r + Surplus.add counts new_r;
        delta := !delta + !r;
        if has_l then (counts.(new_l) <- counts.(new_l) - 1; counts.(old_l) <- counts.(old_l) + 1);
        if has_r then (counts.(new_r) <- counts.(new_r) - 1; counts.(old_r) <- counts.(old_r) + 1);
        if has_cl then counts.(new_cl) <- counts.(new_cl) - 1;
        if has_cr then counts.(new_cr) <- counts.(new_cr) - 1
      done;
      let c = cost0 + !delta in
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
  for d = 1 to n - 1 do
    let base = ((d - 1) * w) + n - 1 in
    if i - d >= 0 then (let v = base + xi - x.(i - d) in counts.(v) <- counts.(v) + 1);
    if i + d < n then (let v = base + x.(i + d) - xi in counts.(v) <- counts.(v) + 1)
  done;
  buf.(0) <- !k;
  !best

let check x =
  let n = Array.length x in
  n >= 3
  && begin
       let seen = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
         x;
       if !ok then begin
         let width = (2 * n) - 1 in
         let seen_d = Array.make width false in
         for d = 1 to n - 1 do
           Array.fill seen_d 0 width false;
           for a = 0 to n - 1 - d do
             let v = x.(a + d) - x.(a) + n - 1 in
             if seen_d.(v) then ok := false else seen_d.(v) <- true
           done
         done
       end;
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
