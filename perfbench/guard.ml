(* Refuses any workload configuration whose amount of work could depend
   on the clock or on the scheduler: a wall-clock solver budget, a
   deadline, the budgeted exact solvers, more than one domain, or fault
   injection. Every workload passes each of its configurations through
   here before it runs. *)

let algo_ok = function
  | Mpl.Decomposer.Ilp | Mpl.Decomposer.Exact ->
    Error "ILP/Exact are budgeted by the wall clock"
  | Mpl.Decomposer.Sdp_backtrack | Mpl.Decomposer.Sdp_greedy
  | Mpl.Decomposer.Linear ->
    Ok ()

let jobs_ok jobs =
  if jobs > 1 then
    Error
      (Printf.sprintf
         "jobs = %d: a second domain makes CPU time depend on the scheduler"
         jobs)
  else Ok ()

let ( let* ) = Result.bind

let params algo (p : Mpl.Decomposer.params) =
  let* () = algo_ok algo in
  let* () = jobs_ok p.Mpl.Decomposer.jobs in
  if p.Mpl.Decomposer.solver_budget_s > 0. then
    Error
      (Printf.sprintf "solver_budget_s = %g: a positive wall-clock budget"
         p.Mpl.Decomposer.solver_budget_s)
  else if p.Mpl.Decomposer.deadline_s <> None then
    Error "deadline_s is set: a deadline ends work by the clock"
  else if p.Mpl.Decomposer.fault <> None then Error "fault injection is armed"
  else Ok ()

let request (r : Mpl_server.Proto.request) =
  let* () = algo_ok r.Mpl_server.Proto.algo in
  let* () = jobs_ok r.Mpl_server.Proto.jobs in
  if r.Mpl_server.Proto.deadline_ms <> None then
    Error "deadline= is set: a deadline ends work by the clock"
  else if r.Mpl_server.Proto.inject <> None then
    Error "inject= arms fault injection"
  else Ok ()
