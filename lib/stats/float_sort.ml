(* The stdlib's [Array.sort] (a ternary heap sort) specialised to floats.
   Its recursive helpers become loops and its [Bottom] exception becomes a
   [-1] from [maxson], but every comparison and every move is the stdlib's,
   in the stdlib's order, which is what makes the output bit-identical.

   Elements are read with [Array.unsafe_get] applied directly to a
   [float array]: the compiler then loads them unboxed.  Binding the
   primitive to a value (as the generic sort does) would make it the
   polymorphic one, which boxes. *)

(* [lt x y] is [Float.compare x y < 0]: NaN equals NaN and is below every
   other float, and [-0.] equals [0.]. *)
let[@inline] lt (x : float) (y : float) = x < y || (x <> x && y = y)

(* Index of the largest of [i]'s (up to three) children among the first
   [l] elements, or -1 when [i] has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1)) then
        i31 + 1
      else i31
    in
    if lt (Array.unsafe_get a x) (Array.unsafe_get a (i31 + 2)) then i31 + 2
    else x
  end
  else if
    i31 + 1 < l && lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1))
  then i31 + 1
  else if i31 < l then i31
  else -1

let sort (a : float array) =
  let l = Array.length a in
  (* Heapify: sift each internal node down to its place. *)
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = Array.unsafe_get a i in
    let i = ref i and sifting = ref true in
    while !sifting do
      let j = maxson a l !i in
      if j >= 0 && lt e (Array.unsafe_get a j) then begin
        Array.unsafe_set a !i (Array.unsafe_get a j);
        i := j
      end
      else begin
        Array.unsafe_set a !i e;
        sifting := false
      end
    done
  done;
  (* Move the root to the end, bubble the hole to the bottom of the
     remaining heap, then let the displaced element climb back up. *)
  for i = l - 1 downto 2 do
    let e = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a 0);
    let hole = ref 0 and j = ref (maxson a i 0) in
    while !j >= 0 do
      Array.unsafe_set a !hole (Array.unsafe_get a !j);
      hole := !j;
      j := maxson a i !j
    done;
    let climbing = ref true in
    while !climbing do
      let father = (!hole - 1) / 3 in
      if lt (Array.unsafe_get a father) e then begin
        Array.unsafe_set a !hole (Array.unsafe_get a father);
        if father > 0 then hole := father
        else begin
          Array.unsafe_set a 0 e;
          climbing := false
        end
      end
      else begin
        Array.unsafe_set a !hole e;
        climbing := false
      end
    done
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end
