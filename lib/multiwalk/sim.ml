type row = { cores : int; expected_runtime : float; speedup : float }

let table ds ~cores =
  let emp = Dataset.empirical ds in
  let mean = Lv_stats.Empirical.mean emp in
  List.map2
    (fun n e -> { cores = n; expected_runtime = e; speedup = mean /. e })
    cores
    (Lv_stats.Empirical.expected_min_table emp cores)

let pp_row ppf r =
  Format.fprintf ppf "cores=%4d E[runtime]=%.6g speedup=%.2f" r.cores
    r.expected_runtime r.speedup
