(* Mask balancing: decompose a benchmark circuit, then rebalance the
   area each mask carries at zero cost (cf. the authors' ICCAD'13
   balanced-density decomposer).

     dune exec examples/balanced_masks.exe [CIRCUIT] *)

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "C7552" in
  let layout =
    try Mpl_layout.Benchgen.circuit circuit
    with Not_found ->
      Printf.eprintf "unknown circuit %s\n" circuit;
      exit 2
  in
  let min_s = Mpl_layout.Layout.quadruple_min_s layout.Mpl_layout.Layout.tech in
  let g = Mpl.Decomp_graph.of_layout layout ~min_s in
  let report = Mpl.Decomposer.assign Mpl.Decomposer.Linear g in
  let colors = report.Mpl.Decomposer.colors in
  (* Weight each node by its pattern area so the rebalance targets
     density, not just vertex counts. *)
  let split = Mpl_layout.Stitch.split layout ~min_s in
  let weights =
    Array.map
      (fun node -> Mpl_geometry.Polygon.area node.Mpl_layout.Stitch.shape)
      split.Mpl_layout.Stitch.nodes
  in
  let balanced = Mpl.Balance.rebalance ~weights ~k:4 ~alpha:0.1 g colors in
  Format.printf "%a@." Mpl_layout.Layout.pp_summary layout;
  Format.printf "%a@." Mpl.Decomposer.pp_report report;
  Format.printf "vertex usage before: %s (imbalance %.3f)@."
    (String.concat " "
       (Array.to_list (Array.map string_of_int (Mpl.Balance.usage ~k:4 colors))))
    (Mpl.Balance.imbalance ~k:4 colors);
  Format.printf "vertex usage after:  %s (imbalance %.3f)@."
    (String.concat " "
       (Array.to_list
          (Array.map string_of_int (Mpl.Balance.usage ~k:4 balanced))))
    (Mpl.Balance.imbalance ~k:4 balanced);
  let cost = Mpl.Coloring.evaluate g balanced in
  Format.printf "cost unchanged: cn#=%d st#=%d@." cost.Mpl.Coloring.conflicts
    cost.Mpl.Coloring.stitches
