(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds and prints, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let w =
    match List.find_opt (fun w -> w.Perfbench.Workloads.name = name) Perfbench.Catalog.all with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" name;
      exit 2
  in
  (* Stop helper processes on every way out. *)
  let quit _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  match
    Perfbench.Runner.run w ~seed ~seconds:(float_of_int seconds) ~traced
  with
  | r ->
    List.iter print_endline r.Perfbench.Runner.notes;
    print_endline (Perfbench.Runner.to_json r)
  | exception Perfbench.Workloads.Refused msg ->
    Printf.eprintf "perfbench: refusing workload %s: %s\n" name msg;
    exit 2
