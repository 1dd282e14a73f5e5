(* The four workloads. Each one generates its inputs from the seed in
   [setup] and then exposes a fixed sequence of like-sized ops (one
   "pass"); the runner repeats the pass until the run's time is up. An
   op calls one layer's public entry point inside [timer.time] and
   checks its output outside it. *)

module D = Mpl.Decomposer
module G = Mpl.Decomp_graph
module Layout = Mpl_layout.Layout
module Layout_io = Mpl_layout.Layout_io

type timer = { time : 'a. (unit -> 'a) -> 'a }

type outcome = {
  scaled : int;  (** the op's conflicts + alpha * stitches, in milli-units *)
  digest : string;  (** digest of the op's coloring *)
  error : string option;  (** why the output check failed *)
  layers : (string * float) list;  (** per-layer readings; traced ops only *)
}

type instance = {
  inputs : string;  (** digest of every generated input *)
  pass : int;  (** ops per pass *)
  op : timer -> first:bool -> traced:bool -> int -> outcome;
      (** [first]: the first time this op index runs in the run, when
          the checks that need a rebuilt graph are made *)
  extra_cpu : unit -> float;  (** CPU the op spends outside this process *)
  extra_rss_mb : unit -> float;  (** peak RSS of helper processes *)
  finish : unit -> (int * string) list;
      (** end-of-run checks: the failing op indices, with the reason *)
  stop : unit -> unit;
}

type t = { name : string; setup : seed:int -> traced:bool -> instance }

exception Refused of string

let refuse_unless = function Ok () -> () | Error msg -> raise (Refused msg)

(* The only decomposer configuration the workloads use: one domain, no
   clock budget, no deadline, no fault injection. *)
let params ~k ~cache =
  { D.default_params with k; cache; jobs = 1; solver_budget_s = 0. }

let checked algo p =
  refuse_unless (Guard.params algo p);
  p

(* A traced op runs with a fresh span sink and metrics registry. *)
let traced_params ~traced p =
  if traced then
    let sink = Mpl_obs.Sink.create () in
    ({ p with D.trace = Some sink; metrics = true }, Some sink)
  else (p, None)

let report_layers sink (r : D.report) =
  match (sink, r.D.metrics) with
  | Some sink, Some s ->
    Layers.span_readings (Layers.of_events (Mpl_obs.Sink.events sink))
    @ Layers.count_readings (Layers.of_snapshot s)
  | _ -> []

let color_digest colors =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length colors) (fun i ->
            Char.chr ((colors.(i) + 1) land 0xff))))

(* Legal (complete, within [0, k)) and costed as reported. *)
let check_coloring ~k g colors (cost : Mpl.Coloring.cost) =
  if Array.length colors <> g.G.n then
    Some
      (Printf.sprintf "coloring covers %d of %d vertices" (Array.length colors)
         g.G.n)
  else if
    not (Mpl.Coloring.is_complete colors && Mpl.Coloring.check_range ~k colors)
  then Some "illegal coloring"
  else
    let c = Mpl.Coloring.evaluate g colors in
    if c <> cost then
      Some
        (Printf.sprintf "reported cost %d/%d/%d, evaluated %d/%d/%d"
           cost.Mpl.Coloring.conflicts cost.Mpl.Coloring.stitches
           cost.Mpl.Coloring.scaled c.Mpl.Coloring.conflicts
           c.Mpl.Coloring.stitches c.Mpl.Coloring.scaled)
    else None

let outcome ?(layers = []) ?error (r : D.report) =
  {
    scaled = r.D.cost.Mpl.Coloring.scaled;
    digest = color_digest r.D.colors;
    error;
    layers;
  }

let in_process ~inputs ~pass ~op =
  {
    inputs;
    pass;
    op;
    extra_cpu = (fun () -> 0.);
    extra_rss_mb = (fun () -> 0.);
    finish = (fun () -> []);
    stop = ignore;
  }

let time_s f =
  let t0 = Mpl_util.Timer.now_s () in
  let r = f () in
  (r, Mpl_util.Timer.now_s () -. t0)

(* ------------------------------------------------------------------ *)

let synth_layouts = 8
let synth_features = 18_000
let synth_gadgets = 100

(* Whole-layout cold Linear decompositions: graph build and the
   per-component extraction inside [assign] do almost all the work. *)
let synth_cold =
  {
    name = "synth-cold";
    setup =
      (fun ~seed ~traced:_ ->
        let texts =
          Array.init synth_layouts (fun i ->
              Layout_io.to_string
                (Inputs.synth ~seed:(Inputs.derive seed i)
                   ~features:synth_features ~gadgets:synth_gadgets))
        in
        let base = checked D.Linear (params ~k:4 ~cache:true) in
        let op timer ~first:_ ~traced i =
          let p, sink = traced_params ~traced base in
          let (g, r), parse_s =
            timer.time (fun () ->
                let layout, parse_s =
                  time_s (fun () -> Layout_io.of_string texts.(i))
                in
                let min_s = Layout.quadruple_min_s layout.Layout.tech in
                (D.decompose ~params:p ~min_s D.Linear layout, parse_s))
          in
          let layers =
            if traced then ("layout.parse_s", parse_s) :: report_layers sink r
            else []
          in
          outcome ~layers ?error:(check_coloring ~k:4 g r.D.colors r.D.cost) r
        in
        in_process
          ~inputs:(Inputs.digest (Array.to_list texts))
          ~pass:synth_layouts ~op);
  }

(* ------------------------------------------------------------------ *)

(* Connected components of the conflict + stitch graph, in order of
   their smallest vertex. *)
let components (g : G.t) =
  let comp = Array.make g.G.n (-1) in
  let out = ref [] in
  for s = 0 to g.G.n - 1 do
    if comp.(s) < 0 then begin
      let members = ref [ s ] and stack = ref [ s ] in
      comp.(s) <- s;
      while !stack <> [] do
        let v = List.hd !stack in
        stack := List.tl !stack;
        let visit u =
          if comp.(u) < 0 then begin
            comp.(u) <- s;
            members := u :: !members;
            stack := u :: !stack
          end
        in
        G.iter g.G.conflict v visit;
        G.iter g.G.stitch v visit
      done;
      out := !members :: !out
    end
  done;
  List.rev !out

(* A dense component — a hard block: at least 40 vertices and three
   conflict edges per vertex. At K=4 one costs about as much as thousands
   of ordinary vertices. *)
let dense (g : G.t) c =
  let n = List.length c in
  let edges = List.fold_left (fun a v -> a + G.deg g.G.conflict v) 0 c / 2 in
  n >= 40 && edges >= 3 * n

(* Like-sized ops from whole components: at K=4 every hard block is an
   op of its own, and the remaining components, in order, are cut into
   the number of runs of about [target] vertices that splits them most
   evenly. Slices are independent sub-problems whose colorings and costs
   add up to the whole circuit's. *)
let slices ~k ~target g =
  let comps = components g in
  let alone, rest = List.partition (fun c -> k = 4 && dense g c) comps in
  let total = List.fold_left (fun a c -> a + List.length c) 0 rest in
  let m = max 1 ((total + (target / 2)) / target) in
  let share = (total + m - 1) / m in
  let groups, last, _ =
    List.fold_left
      (fun (groups, cur, size) c ->
        let cur = c :: cur and size = size + List.length c in
        if size >= share then (cur :: groups, [], 0) else (groups, cur, size))
      ([], [], 0) rest
  in
  let groups = if last = [] then groups else last :: groups in
  List.map
    (fun group ->
      let a = Array.of_list (List.concat group) in
      Array.sort compare a;
      a)
    (List.map (fun c -> [ c ]) alone @ List.rev groups)

(* Two of the paper's S-circuits, at its K=4 (Table 1) and K=5 (Table 2)
   settings, with the slice size that makes an op about 0.4 s of work on
   the measuring machine. *)
let sdp_circuits = [ "S38417"; "S15850" ]
let sdp_ks = [ (4, 10_000); (5, 16_000) ]

(* SDP+Backtrack with the cache off: division and the solve do almost
   all the work. *)
let paper_sdp =
  {
    name = "paper-sdp";
    setup =
      (fun ~seed ~traced:_ ->
        let layouts =
          List.map
            (fun name ->
              Inputs.circuit ~seed:(Inputs.derive seed (Hashtbl.hash name)) name)
            sdp_circuits
        in
        let ops =
          List.concat_map
            (fun (k, target) ->
              let p = checked D.Sdp_backtrack (params ~k ~cache:false) in
              List.concat_map
                (fun l ->
                  let min_s =
                    if k = 4 then Layout.quadruple_min_s l.Layout.tech
                    else Layout.pentuple_min_s l.Layout.tech
                  in
                  let g = G.of_layout l ~min_s in
                  List.map (fun vs -> (p, g, vs)) (slices ~k ~target g))
                layouts)
            sdp_ks
          |> Array.of_list
        in
        let inputs = Inputs.digest (List.map Layout_io.to_string layouts) in
        let op timer ~first:_ ~traced i =
          let base, g, vs = ops.(i) in
          (* A fresh slice graph per op: nothing memoized on the graph
             carries over from an earlier pass. *)
          let sub, _ = G.subgraph g vs in
          let p, sink = traced_params ~traced base in
          let r = timer.time (fun () -> D.assign ~params:p D.Sdp_backtrack sub) in
          outcome ~layers:(report_layers sink r)
            ?error:(check_coloring ~k:base.D.k sub r.D.colors r.D.cost)
            r
        in
        in_process ~inputs ~pass:(Array.length ops) ~op);
  }

(* ------------------------------------------------------------------ *)

let eco_features = 16_000
let eco_gadgets = 500
let eco_chains = 12
let eco_chain_len = 2
let eco_edits = 60

(* Chains of local edits, each redecomposed from the previous session:
   ECO apply, dirty marking, sub-layout rebuild and splice do the work. *)
let eco_chain =
  {
    name = "eco-chain";
    setup =
      (fun ~seed ~traced:_ ->
        let base =
          Inputs.synth ~seed:(Inputs.derive seed 0) ~features:eco_features
            ~gadgets:eco_gadgets
        in
        (* Several chains from the one base session, each reworking the
           region around its own seeded anchor. *)
        let scripts =
          List.init eco_chains (fun c ->
              Inputs.edit_chain ~seed:(Inputs.derive seed (1 + c)) ~count:eco_edits
                ~len:eco_chain_len base)
          |> List.concat |> Array.of_list
        in
        let edits =
          Array.map
            (fun s ->
              match Mpl.Eco.parse_edits s with
              | Ok e -> e
              | Error msg -> failwith ("edit script: " ^ msg))
            scripts
        in
        let p = checked D.Linear (params ~k:4 ~cache:true) in
        let min_s = Layout.quadruple_min_s base.Layout.tech in
        let g, r = D.decompose ~params:p ~min_s D.Linear base in
        let session0 = D.snapshot ~params:p ~min_s D.Linear g base r in
        let cur = ref (base, session0) in
        let ends = Hashtbl.create eco_chains in
        let op timer ~first ~traced i =
          if i mod eco_chain_len = 0 then cur := (base, session0);
          let prev_layout, prev = !cur in
          let p', sink = traced_params ~traced p in
          let res =
            timer.time (fun () ->
                D.redecompose ~params:p' ~prev ~edits:edits.(i) D.Linear)
          in
          match res with
          | Error msg ->
            { scaled = 0; digest = ""; error = Some msg; layers = [] }
          | Ok (layout, r, next) ->
            cur := (layout, next);
            let chain_end = i mod eco_chain_len = eco_chain_len - 1 in
            if first && chain_end then
              Hashtbl.replace ends i (layout, r.D.colors, r.D.cost);
            (* A chain's last op is checked after the run, on the graph
               its cold decompose builds anyway. *)
            let error =
              if first && not chain_end then
                check_coloring ~k:4 (G.of_layout layout ~min_s) r.D.colors
                  r.D.cost
              else None
            in
            let layers =
              if traced then
                let _, apply_s =
                  time_s (fun () -> Mpl.Eco.apply prev_layout edits.(i))
                in
                ("eco.apply_s", apply_s) :: report_layers sink r
              else []
            in
            outcome ~layers ?error r
        in
        (* Each chain's end state must equal a cold decompose of its final
           edited layout, byte for byte. The reference runs the sequential
           decomposition path (cache off), not the engine path the chain
           ran on. *)
        let cold_p = checked D.Linear (params ~k:4 ~cache:false) in
        let finish () =
          Hashtbl.fold
            (fun i (layout, colors, cost) acc ->
              let g, cold = D.decompose ~params:cold_p ~min_s D.Linear layout in
              match check_coloring ~k:4 g colors cost with
              | Some e -> (i, e) :: acc
              | None ->
                if color_digest cold.D.colors = color_digest colors then acc
                else (i, "chain end state differs from a cold decompose") :: acc)
            ends []
        in
        {
          (in_process
             ~inputs:
               (Inputs.digest (Layout_io.to_string base :: Array.to_list scripts))
             ~pass:(Array.length edits) ~op)
          with
          finish;
        });
  }
