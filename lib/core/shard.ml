module Rect = Mpl_geometry.Rect
module Polygon = Mpl_geometry.Polygon
module Layout = Mpl_layout.Layout
module Stitch = Mpl_layout.Stitch
module Dsu = Mpl_graph.Dsu
module Connectivity = Mpl_graph.Connectivity

type window = { members : int array; core : bool array }

type plan = { n_features : int; halo : int; windows : window array }

let plan ?(windows = 1) ~halo (layout : Layout.t) =
  let feats = layout.Layout.features in
  let nf = Array.length feats in
  if nf = 0 then { n_features = 0; halo; windows = [||] }
  else begin
    let boxes = Array.map Polygon.bbox feats in
    let bb = Array.fold_left Rect.union_bbox boxes.(0) boxes in
    let horiz = Rect.width bb >= Rect.height bb in
    let lo, hi =
      if horiz then (bb.Rect.x0, bb.Rect.x1) else (bb.Rect.y0, bb.Rect.y1)
    in
    let count = min (max 1 windows) nf in
    if count <= 1 then
      {
        n_features = nf;
        halo;
        windows =
          [|
            {
              members = Array.init nf (fun i -> i);
              core = Array.make nf true;
            };
          |];
      }
    else begin
      let span = hi - lo in
      let owner = Array.make nf 0 in
      for i = 0 to nf - 1 do
        let b = boxes.(i) in
        (* Twice the bbox center along the cutting axis, kept integral;
           strips partition [lo, hi] evenly. *)
        let c2 =
          if horiz then b.Rect.x0 + b.Rect.x1 else b.Rect.y0 + b.Rect.y1
        in
        let w = (c2 - (2 * lo)) * count / (2 * span) in
        owner.(i) <- min (count - 1) (max 0 w)
      done;
      let extent = Array.make count None in
      for i = 0 to nf - 1 do
        let w = owner.(i) in
        extent.(w) <-
          (match extent.(w) with
          | None -> Some boxes.(i)
          | Some e -> Some (Rect.union_bbox e boxes.(i)))
      done;
      let halo2 = halo * halo in
      let members = Array.make count [] in
      for i = nf - 1 downto 0 do
        for w = 0 to count - 1 do
          match extent.(w) with
          | None -> ()
          | Some e ->
            if owner.(i) = w || Rect.distance2 boxes.(i) e <= halo2 then
              members.(w) <- i :: members.(w)
        done
      done;
      let ws = ref [] in
      for w = count - 1 downto 0 do
        match extent.(w) with
        | None -> ()
        | Some _ ->
          let m = Array.of_list members.(w) in
          let core = Array.map (fun i -> owner.(i) = w) m in
          ws := { members = m; core } :: !ws
      done;
      { n_features = nf; halo; windows = Array.of_list !ws }
    end
  end

type piece = {
  graph : Decomp_graph.t;
  back_feature : int array;
  back_seg : int array;
}

type acc = {
  dsu : Dsu.t;  (* feature-level: observed conflict pairs *)
  border : bool array;  (* feature is in a border-straddling component *)
  segs : int array;  (* canonical segment count; -1 = owner not yet seen *)
  shapes : Polygon.t array array;  (* canonical shapes of border features *)
}

let fresh_acc plan =
  {
    dsu = Dsu.create plan.n_features;
    border = Array.make plan.n_features false;
    segs = Array.make plan.n_features (-1);
    shapes = Array.make plan.n_features [||];
  }

let offsets acc =
  let nf = Array.length acc.segs in
  let off = Array.make nf 0 in
  let total = ref 0 in
  for f = 0 to nf - 1 do
    off.(f) <- !total;
    let s = acc.segs.(f) in
    if s < 0 then
      invalid_arg "Shard.offsets: a feature's owner window was never scanned";
    total := !total + s
  done;
  (off, !total)

let scan_window ?(obs = Mpl_obs.Obs.null) ~acc ~min_s ~hp
    (layout : Layout.t) w =
  let members = w.members in
  let nm = Array.length members in
  Mpl_obs.Obs.span obs "shard.window"
    ~args:[ ("features", Mpl_obs.Sink.Int nm) ]
  @@ fun () ->
  let wl =
    Layout.make ~name:layout.Layout.name layout.Layout.tech
      (Array.to_list (Array.map (fun i -> layout.Layout.features.(i)) members))
  in
  let split = Stitch.split ~obs wl ~min_s in
  let g = Decomp_graph.of_nodes ~obs split ~hp ~min_s in
  let nodes = split.Stitch.nodes in
  let n = g.Decomp_graph.n in
  (* Nodes are feature-major in window feature order: per-feature first
     vertex and segment count in one scan. *)
  let fstart = Array.make nm 0 in
  let fcount = Array.make nm 0 in
  Array.iteri
    (fun v (node : Stitch.node) ->
      let f = node.Stitch.feature in
      if fcount.(f) = 0 then fstart.(f) <- v;
      fcount.(f) <- fcount.(f) + 1)
    nodes;
  for f = 0 to nm - 1 do
    if w.core.(f) then acc.segs.(members.(f)) <- fcount.(f)
  done;
  (* Every observed conflict edge joins two features that really are
     within min_s globally (distances are absolute), so unioning them is
     always sound; completeness comes from each feature's owner window
     seeing its whole halo. *)
  let cadj = g.Decomp_graph.conflict in
  for u = 0 to n - 1 do
    Decomp_graph.iter cadj u (fun v ->
        if u < v then
          ignore
            (Dsu.union acc.dsu
               members.(nodes.(u).Stitch.feature)
               members.(nodes.(v).Stitch.feature)))
  done;
  let comps =
    Mpl_obs.Obs.span obs "division.components" (fun () ->
        Connectivity.components (Decomp_graph.union_graph g))
  in
  let interior = ref [] in
  Array.iter
    (fun comp ->
      let any_core = ref false and all_core = ref true in
      Array.iter
        (fun v ->
          if w.core.(nodes.(v).Stitch.feature) then any_core := true
          else all_core := false)
        comp;
      if !any_core then begin
        if !all_core then interior := comp :: !interior
        else begin
          (* Border-straddling: defer. Record each core feature's
             canonical segment shapes once, in its owner window. *)
          let seen = Hashtbl.create 16 in
          Array.iter
            (fun v ->
              let f = nodes.(v).Stitch.feature in
              if w.core.(f) && not (Hashtbl.mem seen f) then begin
                Hashtbl.add seen f ();
                let gid = members.(f) in
                acc.border.(gid) <- true;
                acc.shapes.(gid) <-
                  Array.init fcount.(f) (fun s ->
                      nodes.(fstart.(f) + s).Stitch.shape)
              end)
            comp
        end
      end)
    comps;
  (* Only the all-core components are extracted, in one batch. *)
  Division.extract ~obs g (Array.of_list (List.rev !interior))
  |> Array.to_list
  |> List.map (fun (graph, back) ->
         let back_feature =
           Array.map (fun v -> members.(nodes.(v).Stitch.feature)) back
         in
         let back_seg =
           Array.map (fun v -> v - fstart.(nodes.(v).Stitch.feature)) back
         in
         { graph; back_feature; back_seg })

let border_pieces ?(obs = Mpl_obs.Obs.null) acc ~min_s ~hp =
  let nf = Array.length acc.border in
  (* Group border features by DSU class, classes ordered by smallest
     member, members ascending. *)
  let groups = Hashtbl.create 64 in
  for f = nf - 1 downto 0 do
    if acc.border.(f) then begin
      let r = Dsu.find acc.dsu f in
      match Hashtbl.find_opt groups r with
      | Some l -> Hashtbl.replace groups r (f :: l)
      | None -> Hashtbl.add groups r [ f ]
    end
  done;
  let seen = Hashtbl.create 64 in
  let ranked = ref [] in
  for f = 0 to nf - 1 do
    if acc.border.(f) then begin
      let r = Dsu.find acc.dsu f in
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        ranked := r :: !ranked
      end
    end
  done;
  let ranked = List.rev !ranked in
  List.map
    (fun r ->
      let feats = Array.of_list (Hashtbl.find groups r) in
      (* Built high-to-low with conses: already ascending. *)
      let back_feature = ref [] and back_seg = ref [] in
      let nodes = ref [] and stitch_edges = ref [] in
      let next = ref 0 in
      Array.iteri
        (fun fi gid ->
          let shapes = acc.shapes.(gid) in
          let first = !next in
          Array.iteri
            (fun s shape ->
              nodes := { Stitch.feature = fi; shape } :: !nodes;
              back_feature := gid :: !back_feature;
              back_seg := s :: !back_seg;
              if s > 0 then
                stitch_edges := (first + s - 1, first + s) :: !stitch_edges;
              incr next)
            shapes)
        feats;
      let split =
        {
          Stitch.nodes = Array.of_list (List.rev !nodes);
          stitch_edges = List.rev !stitch_edges;
        }
      in
      let graph = Decomp_graph.of_nodes ~obs split ~hp ~min_s in
      {
        graph;
        back_feature = Array.of_list (List.rev !back_feature);
        back_seg = Array.of_list (List.rev !back_seg);
      })
    ranked
