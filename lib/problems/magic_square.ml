type t = {
  n : int;            (* side length *)
  nn : int;           (* n * n, number of variables *)
  magic : int;        (* n (n² + 1) / 2 *)
  x : int array;      (* permutation of 0 .. nn-1; cell value = x.(i) + 1 *)
  row : int array;    (* row.(i) = i / n *)
  col : int array;    (* col.(i) = i mod n *)
  on_diag : bool array;  (* cell i is on the main diagonal *)
  on_anti : bool array;  (* cell i is on the anti-diagonal *)
  row_sum : int array;
  col_sum : int array;
  mutable diag_sum : int;      (* main diagonal, r = c *)
  mutable anti_sum : int;      (* anti-diagonal, r + c = n - 1 *)
  mutable cost : int;
}

let name = "magic-square"
let size t = t.nn
let config t = t.x
let cost t = t.cost

let line_cost t =
  let c = ref 0 in
  for r = 0 to t.n - 1 do
    c := !c + abs (t.row_sum.(r) - t.magic)
  done;
  for cidx = 0 to t.n - 1 do
    c := !c + abs (t.col_sum.(cidx) - t.magic)
  done;
  c := !c + abs (t.diag_sum - t.magic) + abs (t.anti_sum - t.magic);
  !c

let rebuild t =
  Array.fill t.row_sum 0 t.n 0;
  Array.fill t.col_sum 0 t.n 0;
  t.diag_sum <- 0;
  t.anti_sum <- 0;
  for i = 0 to t.nn - 1 do
    let v = t.x.(i) + 1 in
    t.row_sum.(t.row.(i)) <- t.row_sum.(t.row.(i)) + v;
    t.col_sum.(t.col.(i)) <- t.col_sum.(t.col.(i)) + v;
    if t.on_diag.(i) then t.diag_sum <- t.diag_sum + v;
    if t.on_anti.(i) then t.anti_sum <- t.anti_sum + v
  done;
  t.cost <- line_cost t

let set_config t cfg =
  if Array.length cfg <> t.nn then invalid_arg "Magic_square.set_config: size mismatch";
  Array.blit cfg 0 t.x 0 t.nn;
  rebuild t

let create n =
  if n < 3 then invalid_arg "Magic_square.create: n must be >= 3";
  let nn = n * n in
  let t =
    {
      n;
      nn;
      magic = n * (nn + 1) / 2;
      x = Array.init nn (fun i -> i);
      row = Array.init nn (fun i -> i / n);
      col = Array.init nn (fun i -> i mod n);
      on_diag = Array.init nn (fun i -> i / n = i mod n);
      on_anti = Array.init nn (fun i -> (i / n) + (i mod n) = n - 1);
      row_sum = Array.make n 0;
      col_sum = Array.make n 0;
      diag_sum = 0;
      anti_sum = 0;
      cost = 0;
    }
  in
  rebuild t;
  t

let var_error t i =
  let e = abs (t.row_sum.(t.row.(i)) - t.magic) + abs (t.col_sum.(t.col.(i)) - t.magic) in
  let e = if t.on_diag.(i) then e + abs (t.diag_sum - t.magic) else e in
  if t.on_anti.(i) then e + abs (t.anti_sum - t.magic) else e

(* Each line's deviation is read once and added to every cell on it: rows
   first, then columns, then the two diagonals (a cell on both, the centre
   of an odd square, gets both). *)
let errors t buf =
  let n = t.n and m = t.magic in
  for r = 0 to n - 1 do
    let e = abs (t.row_sum.(r) - m) in
    for c = 0 to n - 1 do
      buf.((r * n) + c) <- e
    done
  done;
  for c = 0 to n - 1 do
    let e = abs (t.col_sum.(c) - m) in
    for r = 0 to n - 1 do
      let j = (r * n) + c in
      buf.(j) <- buf.(j) + e
    done
  done;
  let ed = abs (t.diag_sum - m) and ea = abs (t.anti_sum - m) in
  for r = 0 to n - 1 do
    let d = (r * n) + r and a = (r * n) + (n - 1 - r) in
    buf.(d) <- buf.(d) + ed;
    buf.(a) <- buf.(a) + ea
  done

(* [acc] updated for a line whose sum moves from [sum] to [sum + delta]. *)
let adjust magic sum delta acc = acc - abs (sum - magic) + abs (sum + delta - magic)

(* Swapping cells [i] and [j] adds d = x_j - x_i to every line through i
   and subtracts it from every line through j; a line through both is
   unchanged. *)
let cost_after_swap t i j =
  if i = j then t.cost
  else begin
    let d = t.x.(j) - t.x.(i) and m = t.magic in
    let ri = t.row.(i) and rj = t.row.(j) in
    let ci = t.col.(i) and cj = t.col.(j) in
    let acc = t.cost in
    let acc =
      if ri <> rj then adjust m t.row_sum.(rj) (-d) (adjust m t.row_sum.(ri) d acc) else acc
    in
    let acc =
      if ci <> cj then adjust m t.col_sum.(cj) (-d) (adjust m t.col_sum.(ci) d acc) else acc
    in
    let di = t.on_diag.(i) and dj = t.on_diag.(j) in
    let acc =
      if di && not dj then adjust m t.diag_sum d acc
      else if dj && not di then adjust m t.diag_sum (-d) acc
      else acc
    in
    let ai = t.on_anti.(i) and aj = t.on_anti.(j) in
    if ai && not aj then adjust m t.anti_sum d acc
    else if aj && not ai then adjust m t.anti_sum (-d) acc
    else acc
  end

(* One scan for every partner of culprit [i]: the deviations of the
   culprit's row, column and diagonals from [magic] are read once, and each
   partner [j] (row [r], column [c]) evaluates only its own lines.  The terms
   are those of [cost_after_swap] and integer sums do not depend on their
   order, so each cost equals [cost_after_swap t i j] exactly. *)
let best_partners t i buf =
  let n = t.n and m = t.magic and x = t.x and cost = t.cost in
  let xi = x.(i) and ri = t.row.(i) and ci = t.col.(i) in
  let di = t.on_diag.(i) and ai = t.on_anti.(i) in
  let rsi = t.row_sum.(ri) - m and csi = t.col_sum.(ci) - m in
  let ds = t.diag_sum - m and an = t.anti_sum - m in
  let e_ri = abs rsi and e_ci = abs csi and e_d = abs ds and e_a = abs an in
  let best = ref max_int and k = ref 0 in
  for r = 0 to n - 1 do
    let rsj = t.row_sum.(r) - m in
    let e_rj = abs rsj in
    for c = 0 to n - 1 do
      let j = (r * n) + c in
      if j <> i then begin
        let d = x.(j) - xi in
        let acc = if r <> ri then cost + abs (rsi + d) - e_ri + abs (rsj - d) - e_rj else cost in
        let acc =
          if c <> ci then begin
            let csj = t.col_sum.(c) - m in
            acc + abs (csi + d) - e_ci + abs (csj - d) - abs csj
          end
          else acc
        in
        let dj = r = c and aj = r + c = n - 1 in
        let acc =
          if di = dj then acc else if di then acc + abs (ds + d) - e_d else acc + abs (ds - d) - e_d
        in
        let acc =
          if ai = aj then acc else if ai then acc + abs (an + d) - e_a else acc + abs (an - d) - e_a
        in
        if acc < !best then begin
          best := acc;
          buf.(1) <- j;
          k := 1
        end
        else if acc = !best then begin
          incr k;
          buf.(!k) <- j
        end
      end
    done
  done;
  buf.(0) <- !k;
  !best

let do_swap t i j =
  if i <> j then begin
    let d = t.x.(j) - t.x.(i) in
    let ri = t.row.(i) and rj = t.row.(j) in
    let ci = t.col.(i) and cj = t.col.(j) in
    if ri <> rj then begin
      t.row_sum.(ri) <- t.row_sum.(ri) + d;
      t.row_sum.(rj) <- t.row_sum.(rj) - d
    end;
    if ci <> cj then begin
      t.col_sum.(ci) <- t.col_sum.(ci) + d;
      t.col_sum.(cj) <- t.col_sum.(cj) - d
    end;
    let di = t.on_diag.(i) and dj = t.on_diag.(j) in
    if di && not dj then t.diag_sum <- t.diag_sum + d
    else if dj && not di then t.diag_sum <- t.diag_sum - d;
    let ai = t.on_anti.(i) and aj = t.on_anti.(j) in
    if ai && not aj then t.anti_sum <- t.anti_sum + d
    else if aj && not ai then t.anti_sum <- t.anti_sum - d;
    let tmp = t.x.(i) in
    t.x.(i) <- t.x.(j);
    t.x.(j) <- tmp;
    t.cost <- line_cost t
  end

let check ~n x =
  let nn = n * n in
  Array.length x = nn
  && begin
       let magic = n * (nn + 1) / 2 in
       let seen = Array.make nn false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= nn || seen.(v) then ok := false else seen.(v) <- true)
         x;
       if !ok then begin
         for r = 0 to n - 1 do
           let s = ref 0 in
           for c = 0 to n - 1 do
             s := !s + x.((r * n) + c) + 1
           done;
           if !s <> magic then ok := false
         done;
         for c = 0 to n - 1 do
           let s = ref 0 in
           for r = 0 to n - 1 do
             s := !s + x.((r * n) + c) + 1
           done;
           if !s <> magic then ok := false
         done;
         let d1 = ref 0 and d2 = ref 0 in
         for r = 0 to n - 1 do
           d1 := !d1 + x.((r * n) + r) + 1;
           d2 := !d2 + x.((r * n) + (n - 1 - r)) + 1
         done;
         if !d1 <> magic || !d2 <> magic then ok := false
       end;
       !ok
     end

let is_solution t = check ~n:t.n t.x

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
