module Sdp = Mpl_numeric.Sdp
module Dsu = Mpl_graph.Dsu

let relax ?mode ~k ~alpha (g : Decomp_graph.t) =
  let problem =
    {
      Sdp.n = g.Decomp_graph.n;
      conflict_edges = Array.of_list (Decomp_graph.conflict_edges g);
      stitch_edges = Array.of_list (Decomp_graph.stitch_edges g);
      k;
      alpha;
    }
  in
  Sdp.solve ?mode problem

let greedy_map ~k (sol : Sdp.solution) (g : Decomp_graph.t) =
  let n = g.Decomp_graph.n in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      compare (Decomp_graph.conflict_degree g b) (Decomp_graph.conflict_degree g a))
    order;
  let colors = Array.make n (-1) in
  let colored = ref [] in
  Array.iter
    (fun v ->
      let score = Array.make k 0. in
      (* Gram affinity toward every already-colored vertex of the
         component: vertices the SDP placed together pull v to their
         color. *)
      List.iter
        (fun u -> score.(colors.(u)) <- score.(colors.(u)) +. Sdp.gram sol v u)
        !colored;
      (* Hard local penalties dominate affinity. *)
      Decomp_graph.iter g.Decomp_graph.conflict v (fun u ->
          if colors.(u) >= 0 then
            score.(colors.(u)) <- score.(colors.(u)) -. 1000.);
      Decomp_graph.iter g.Decomp_graph.stitch v (fun u ->
          if colors.(u) >= 0 then begin
            (* A stitch is paid on every color except the neighbor's. *)
            for c = 0 to k - 1 do
              if c <> colors.(u) then score.(c) <- score.(c) -. 0.5
            done
          end);
      let best = ref 0 in
      for c = 1 to k - 1 do
        if score.(c) > score.(!best) then best := c
      done;
      colors.(v) <- !best;
      colored := v :: !colored)
    order;
  colors

(* Can groups [a] and [b] merge without trapping a conflict edge inside
   one vertex? *)
let groups_compatible g members ra rb =
  List.for_all
    (fun u -> List.for_all (fun v -> not (Decomp_graph.has_conflict g u v)) members.(rb))
    members.(ra)

let tth = 0.9

let backtrack ?(obs = Mpl_obs.Obs.null) ?budget ~k
    ~alpha (sol : Sdp.solution) (g : Decomp_graph.t) =
  let n = g.Decomp_graph.n in
  if n = 0 then [||]
  else begin
    (* Candidate merges, strongest affinity first. *)
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = Sdp.gram sol i j in
        if x >= tth then pairs := (x, i, j) :: !pairs
      done
    done;
    let pairs =
      List.sort (fun (a, _, _) (b, _, _) -> compare b a) !pairs
    in
    let dsu = Dsu.create n in
    let members = Array.init n (fun i -> [ i ]) in
    List.iter
      (fun (_, i, j) ->
        let ri = Dsu.find dsu i and rj = Dsu.find dsu j in
        if ri <> rj && groups_compatible g members ri rj then begin
          ignore (Dsu.union dsu i j);
          let r = Dsu.find dsu i in
          let other = if r = ri then rj else ri in
          members.(r) <- members.(ri) @ members.(rj);
          members.(other) <- []
        end)
      pairs;
    (* Relabel groups 0..m-1 and aggregate edge weights. *)
    let group_id = Hashtbl.create n in
    let group_of = Array.make n 0 in
    let m = ref 0 in
    for v = 0 to n - 1 do
      let r = Dsu.find dsu v in
      let gid =
        match Hashtbl.find_opt group_id r with
        | Some gid -> gid
        | None ->
          let gid = !m in
          incr m;
          Hashtbl.add group_id r gid;
          gid
      in
      group_of.(v) <- gid
    done;
    let m = !m in
    let wc = Coloring.weight_conflict in
    let ws = Coloring.stitch_weight ~alpha in
    let weights = Hashtbl.create 64 in
    let bump u v same diff =
      let key = (min u v, max u v) in
      let s0, d0 =
        match Hashtbl.find_opt weights key with Some p -> p | None -> (0, 0)
      in
      Hashtbl.replace weights key (s0 + same, d0 + diff)
    in
    List.iter
      (fun (u, v) ->
        let gu = group_of.(u) and gv = group_of.(v) in
        if gu <> gv then bump gu gv wc 0)
      (Decomp_graph.conflict_edges g);
    List.iter
      (fun (u, v) ->
        let gu = group_of.(u) and gv = group_of.(v) in
        if gu <> gv then bump gu gv 0 ws)
      (Decomp_graph.stitch_edges g);
    let adj = Array.make m [] in
    Hashtbl.iter
      (fun (u, v) (same_cost, diff_cost) ->
        adj.(u) <- { Bnb.target = v; same_cost; diff_cost } :: adj.(u);
        adj.(v) <- { Bnb.target = u; same_cost; diff_cost } :: adj.(v))
      weights;
    let inst = { Bnb.n = m; adj } in
    (* Seed with the greedy mapping projected onto groups. *)
    let greedy = greedy_map ~k sol g in
    let init = Array.make m 0 in
    for v = n - 1 downto 0 do
      init.(group_of.(v)) <- greedy.(v)
    done;
    let result = Bnb.solve ?budget ~init ~k inst in
    Mpl_obs.Metrics.observe
      (Mpl_obs.Metrics.histogram obs.Mpl_obs.Obs.metrics "solver.bnb_nodes")
      (float_of_int result.Bnb.nodes);
    Array.init n (fun v -> result.Bnb.colors.(group_of.(v)))
  end
