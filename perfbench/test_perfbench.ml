(* Tests of the benchmark harness itself: the tail rule, seed
   determinism of the inputs, the clock-dependence guard, and span
   accounting. *)

open Perfbench

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* The tail leaves at least 10 samples beyond it, and is the highest
   index that does. *)
let () =
  check "no tail below 11 samples"
    (List.for_all (fun n -> Stats.tail_index n = None) [ 0; 1; 5; 10 ]);
  check "tail leaves >= 10 samples beyond, and is the highest such"
    (List.for_all
       (fun n ->
         match Stats.tail_index n with
         | Some i -> n - 1 - i >= 10 && n - 1 - (i + 1) < 10
         | None -> false)
       (List.init 190 (fun k -> k + 11)));
  let a = Array.init 40 (fun i -> float_of_int ((i * 17) mod 40)) in
  check "tail value is the 30th smallest of 40 (p75)"
    (match Stats.tail a with
    | Some t -> t.Stats.value = 29. && t.Stats.pct = 75 && t.Stats.samples = 40
    | None -> false);
  check "median of an even sample"
    (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5)

(* The same seed gives byte-identical inputs; another seed does not. *)
let () =
  let text seed =
    Mpl_layout.Layout_io.to_string
      (Inputs.synth ~seed ~features:1500 ~gadgets:5)
  in
  check "synth layout: same seed, same bytes" (text 7 = text 7);
  check "synth layout: another seed, other bytes" (text 7 <> text 8);
  let circuit seed =
    Mpl_layout.Layout_io.to_string (Inputs.circuit ~seed "S38417")
  in
  check "S-circuit: same seed, same bytes" (circuit 3 = circuit 3);
  check "S-circuit: another seed, other bytes" (circuit 3 <> circuit 4);
  let base = Inputs.synth ~seed:1 ~features:1500 ~gadgets:0 in
  let chain seed = Inputs.edit_chain ~seed ~count:10 ~len:4 base in
  check "edit chain: same seed, same scripts" (chain 5 = chain 5);
  check "edit chain: another seed, other scripts" (chain 5 <> chain 6);
  check "derived seeds are distinct"
    (List.length (List.sort_uniq compare (List.init 50 (Inputs.derive 1)))
    = 50);
  List.iter
    (fun (w : Workloads.t) ->
      let digest () =
        let inst = w.Workloads.setup ~seed:11 ~traced:false in
        inst.Workloads.stop ();
        inst.Workloads.inputs
      in
      check (w.Workloads.name ^ ": set-up inputs repeat") (digest () = digest ()))
    [ Workloads.synth_cold; Workloads.eco_chain ]

(* The guard refuses every setting that lets the clock decide the
   amount of work, and accepts what the workloads use. *)
let () =
  let module D = Mpl.Decomposer in
  let p = Workloads.params ~k:4 ~cache:true in
  let refused = function Error _ -> true | Ok () -> false in
  check "guard accepts the workload configuration"
    (Guard.params D.Linear p = Ok () && Guard.params D.Sdp_backtrack p = Ok ());
  check "guard refuses a positive solver budget"
    (refused (Guard.params D.Linear { p with D.solver_budget_s = 60. }));
  check "guard refuses a deadline"
    (refused (Guard.params D.Linear { p with D.deadline_s = Some 1. }));
  check "guard refuses ILP" (refused (Guard.params D.Ilp p));
  check "guard refuses Exact" (refused (Guard.params D.Exact p));
  check "guard refuses jobs > 1"
    (refused (Guard.params D.Linear { p with D.jobs = 2 }));
  let fault =
    match Mpl_engine.Fault.parse "solver_raise" with
    | Ok f -> f
    | Error msg -> failwith msg
  in
  check "guard refuses fault injection"
    (refused (Guard.params D.Linear { p with D.fault = Some fault }));
  let module P = Mpl_server.Proto in
  let r = { P.default_request with P.algo = D.Linear } in
  check "guard accepts the served request" (Guard.request r = Ok ());
  check "guard refuses a request deadline"
    (refused (Guard.request { r with P.deadline_ms = Some 100 }));
  check "guard refuses request fault injection"
    (refused (Guard.request { r with P.inject = Some fault }));
  check "guard refuses a served ILP request"
    (refused (Guard.request { r with P.algo = D.Ilp }));
  check "guard refuses a served Exact request"
    (refused (Guard.request { r with P.algo = D.Exact }));
  check "guard refuses request jobs > 1"
    (refused (Guard.request { r with P.jobs = 2 }));
  check "guard refuses a multi-domain server" (refused (Guard.jobs_ok 2));
  check "a refused workload raises Refused"
    (match Workloads.checked D.Ilp p with
    | _ -> false
    | exception Workloads.Refused _ -> true)

(* Span accounting: nested spans count once, and the unattributed part
   of a parent is what its children leave uncovered. *)
let () =
  let s name t0 t1 = { Layers.name; tid = 1; t0; t1 } in
  let spans =
    [ s "assign" 0. 10.; s "engine.batch" 1. 4.; s "solve.Linear" 2. 3.;
      s "division.peel" 3.5 6. ]
  in
  check "covered counts the union" (Layers.covered spans = 10.);
  check "unattributed = parent minus its children's union"
    (Layers.unattributed "assign" spans = 5.);
  check "span readings present only for entered layers"
    (let r = Layers.span_readings spans in
     List.mem_assoc "assign.s" r
     && List.mem_assoc "solve.s" r
     && not (List.mem_assoc "eco.redecompose_s" r))

let () = if !failures > 0 then exit 1
