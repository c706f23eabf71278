let[@inline] remove counts k =
  let c = counts.(k) in
  counts.(k) <- c - 1;
  if c > 1 then -1 else 0

let[@inline] add counts k =
  let c = counts.(k) in
  counts.(k) <- c + 1;
  if c >= 1 then 1 else 0
