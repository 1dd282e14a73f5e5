type stats = {
  pieces : int;
  solved : int;
  hits : int;
  reused : int;
  failed : int;
  rejected : int;
}

(* ------------------------------------------------------------------ *)
(* Streaming driver. A [stream] accepts items one at a time ([push]),
   decides each item's resolution plan immediately — cache hit, batch
   follower, or fresh leader — and returns a [cell] whose result is
   demanded later with [force]. All cache probes and leader elections
   happen on the pushing thread in push order, so a given (item
   sequence, cache contents) pair always resolves hits, batch reuses and
   fresh solves identically regardless of pool width or of how work is
   scheduled behind the [plant] callback: [jobs] stays a pure
   performance knob. *)

type ('a, 'v) cell_state =
  | Ready of int array * 'v
  | Planned of (unit -> int array * 'v)  (* leader: demand-side join *)
  | Follow of ('a, 'v) cell  (* reuse that leader's result *)

and ('a, 'v) cell = {
  item : 'a;
  c_sig : Cache.signature option;
  mutable cs : ('a, 'v) cell_state;
}

type ('a, 'v) t = {
  obs : Mpl_obs.Obs.t;
  cache : 'v Cache.t option;
  signature : 'a -> Cache.signature option;
  validate : 'a -> int array -> bool;
  recover : ('a -> exn -> Printexc.raw_backtrace -> int array * 'v) option;
  plant : 'a -> unit -> int array * 'v;
  leaders : (string, ('a, 'v) cell) Hashtbl.t;
  mutable n_pieces : int;
  mutable n_solved : int;
  mutable n_hits : int;
  mutable n_reused : int;
  mutable n_failed : int;
  mutable n_rejected : int;
}

let stream ?(obs = Mpl_obs.Obs.null) ?cache
    ?(signature = fun _ -> None) ?(validate = fun _ _ -> true) ?recover
    ~plant () =
  {
    obs;
    cache;
    signature;
    validate;
    recover;
    plant;
    leaders = Hashtbl.create 64;
    n_pieces = 0;
    n_solved = 0;
    n_hits = 0;
    n_reused = 0;
    n_failed = 0;
    n_rejected = 0;
  }

let push t item =
  t.n_pieces <- t.n_pieces + 1;
  let c_sig = match t.cache with Some _ -> t.signature item | None -> None in
  (* Batch-leader election per serialization, so a follower is
     byte-identical to its leader. *)
  let lead () =
    match c_sig with
    | None ->
      t.n_solved <- t.n_solved + 1;
      { item; c_sig; cs = Planned (t.plant item) }
    | Some s -> (
      match Hashtbl.find_opt t.leaders s.Cache.serial with
      | Some leader ->
        t.n_reused <- t.n_reused + 1;
        { item; c_sig; cs = Follow leader }
      | None ->
        t.n_solved <- t.n_solved + 1;
        let cell = { item; c_sig; cs = Planned (t.plant item) } in
        Hashtbl.replace t.leaders s.Cache.serial cell;
        cell)
  in
  match c_sig with
  | None -> lead ()
  | Some s -> (
    match Option.bind t.cache (fun c -> Cache.find c s) with
    | Some (colors, v) when t.validate item colors ->
      t.n_hits <- t.n_hits + 1;
      { item; c_sig; cs = Ready (colors, v) }
    | Some _ ->
      (* Cached coloring failed validation: treat as a miss and re-solve
         rather than propagate a bad reuse. *)
      t.n_rejected <- t.n_rejected + 1;
      lead ()
    | None -> lead ())

let rec force t cell =
  match cell.cs with
  | Ready (colors, v) -> (colors, v)
  | Planned join ->
    let r =
      match join () with
      | r ->
        (match (t.cache, cell.c_sig) with
        | Some c, Some s ->
          Cache.store c s r;
          (* A later duplicate now hits the cache, so the leader entry
             (and the piece it holds) can go. *)
          Hashtbl.remove t.leaders s.Cache.serial
        | _ -> ());
        r
      | exception e -> (
        match t.recover with
        | None -> raise e
        | Some recover ->
          (* Isolate the failure to this item: recover a substitute
             result (never cached — it is not what the planner returns)
             and let any followers reuse it; the leader entry stays, so
             later duplicates follow it too. *)
          let bt = Printexc.get_raw_backtrace () in
          t.n_failed <- t.n_failed + 1;
          recover cell.item e bt)
    in
    let colors, v = r in
    cell.cs <- Ready (colors, v);
    r
  | Follow leader ->
    let lc, lv = force t leader in
    let colors = Array.copy lc in
    cell.cs <- Ready (colors, lv);
    (colors, lv)

let finish t =
  let m = t.obs.Mpl_obs.Obs.metrics in
  Mpl_obs.Metrics.add (Mpl_obs.Metrics.counter m "engine.pieces") t.n_pieces;
  Mpl_obs.Metrics.add (Mpl_obs.Metrics.counter m "engine.solved") t.n_solved;
  Mpl_obs.Metrics.add (Mpl_obs.Metrics.counter m "engine.cache_hits") t.n_hits;
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "engine.batch_reused")
    t.n_reused;
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "engine.piece_failures")
    t.n_failed;
  Mpl_obs.Metrics.add
    (Mpl_obs.Metrics.counter m "engine.cache_rejects")
    t.n_rejected;
  {
    pieces = t.n_pieces;
    solved = t.n_solved;
    hits = t.n_hits;
    reused = t.n_reused;
    failed = t.n_failed;
    rejected = t.n_rejected;
  }
