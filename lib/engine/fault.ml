(* Deterministic fault injection for the decomposition engine.

   An armed injector targets exactly one site; the seed selects *which*
   eligible occurrence of that site fires (occurrence [seed mod 8],
   counted from 0), and [shots] consecutive occurrences fire starting
   there. Occurrences are counted with an atomic, so with one worker the
   firing point is fully deterministic; with several workers the set of
   eligible occurrences is the same but their global order may vary —
   the robustness guarantees (legal output, accurate provenance) hold
   either way. *)

type site =
  | Solver_raise
  | Worker_delay
  | Cache_corrupt
  | Budget_trip
  | Conn_drop
  | Write_stall
  | Torn_frame

type spec = { site : site; seed : int; shots : int }

exception Injected of site

type t = {
  spec : spec option;
  count : int Atomic.t;  (* eligible occurrences of the armed site seen *)
  fired_c : int Atomic.t;
}

let site_name = function
  | Solver_raise -> "solver_raise"
  | Worker_delay -> "worker_delay"
  | Cache_corrupt -> "cache_corrupt"
  | Budget_trip -> "budget_trip"
  | Conn_drop -> "conn_drop"
  | Write_stall -> "write_stall"
  | Torn_frame -> "torn_frame"

let site_of_name = function
  | "solver_raise" -> Some Solver_raise
  | "worker_delay" | "delay" -> Some Worker_delay
  | "cache_corrupt" -> Some Cache_corrupt
  | "budget_trip" -> Some Budget_trip
  | "conn_drop" -> Some Conn_drop
  | "write_stall" -> Some Write_stall
  | "torn_frame" -> Some Torn_frame
  | _ -> None

let spec_to_string sp =
  Printf.sprintf "%s:seed=%d%s" (site_name sp.site) sp.seed
    (if sp.shots = 1 then "" else Printf.sprintf ":shots=%d" sp.shots)

let parse s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error "empty fault spec"
  | name :: opts -> (
    match site_of_name name with
    | None ->
      Error
        (Printf.sprintf
           "unknown fault site %S (expected solver_raise, worker_delay, \
            cache_corrupt, budget_trip, conn_drop, write_stall or \
            torn_frame)"
           name)
    | Some site ->
      let parse_opt acc opt =
        match acc with
        | Error _ -> acc
        | Ok sp -> (
          match String.split_on_char '=' opt with
          | [ "seed"; v ] -> (
            match int_of_string_opt v with
            | Some seed when seed >= 0 -> Ok { sp with seed }
            | _ -> Error (Printf.sprintf "bad seed %S" v))
          | [ "shots"; v ] -> (
            match int_of_string_opt v with
            | Some shots when shots >= 1 -> Ok { sp with shots }
            | _ -> Error (Printf.sprintf "bad shots %S" v))
          | _ -> Error (Printf.sprintf "bad fault option %S" opt))
      in
      List.fold_left parse_opt (Ok { site; seed = 0; shots = 1 }) opts)

let none = { spec = None; count = Atomic.make 0; fired_c = Atomic.make 0 }

let arm spec =
  { spec = Some spec; count = Atomic.make 0; fired_c = Atomic.make 0 }

let fires t site =
  match t.spec with
  | None -> false
  | Some sp when sp.site <> site -> false
  | Some sp ->
    let c = Atomic.fetch_and_add t.count 1 in
    let first = sp.seed land 0x7 in
    if c >= first && c < first + sp.shots then begin
      Atomic.incr t.fired_c;
      true
    end
    else false

let fired t = Atomic.get t.fired_c > 0
let fire_count t = Atomic.get t.fired_c

(* Busy-wait so the delay works from any domain without a Unix
   dependency; 5 ms is enough to perturb work-stealing schedules. *)
let delay () =
  let t0 = Mpl_util.Timer.now_ns () in
  while Int64.sub (Mpl_util.Timer.now_ns ()) t0 < 5_000_000L do
    Domain.cpu_relax ()
  done
