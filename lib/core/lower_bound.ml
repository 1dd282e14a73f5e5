module Ugraph = Mpl_graph.Ugraph
module Connectivity = Mpl_graph.Connectivity

let excess_pairs m k =
  if m <= k || k <= 0 then 0
  else begin
    (* Even partition: r classes of size q+1 and k-r of size q. *)
    let q = m / k and r = m mod k in
    let pairs s = s * (s - 1) / 2 in
    (r * pairs (q + 1)) + ((k - r) * pairs q)
  end

(* Max clique by branch-and-bound: candidates ordered by degree; the
   bound is |current| + |candidates| (a greedy-coloring bound would be
   tighter but degree-sorted candidate pruning is enough at
   post-division component sizes). Anytime: past 500,000 expanded
   nodes the best clique so far stands. *)
let max_clique g =
  let n = Ugraph.n g in
  let adj =
    Array.init n (fun v ->
        let s = Hashtbl.create 8 in
        List.iter (fun u -> Hashtbl.replace s u ()) (Ugraph.neighbors g v);
        s)
  in
  let best = ref [] in
  let nodes = ref 0 in
  let rec extend current candidates =
    incr nodes;
    if !nodes <= 500_000 then begin
      if List.length current > List.length !best then best := current;
      let rec loop = function
        | [] -> ()
        | v :: rest ->
          if List.length current + 1 + List.length rest > List.length !best
          then begin
            let cand' = List.filter (fun u -> Hashtbl.mem adj.(v) u) rest in
            extend (v :: current) cand';
            loop rest
          end
      in
      loop candidates
    end
  in
  let order = List.init n Fun.id in
  let order =
    List.sort (fun a b -> compare (Ugraph.degree g b) (Ugraph.degree g a)) order
  in
  extend [] order;
  let a = Array.of_list !best in
  Array.sort compare a;
  a

let conflict_lower_bound ~k (g : Decomp_graph.t) =
  let cg = Decomp_graph.conflict_graph g in
  let comps = Connectivity.components cg in
  let total = ref 0 in
  Array.iter
    (fun comp ->
      if Array.length comp > k then begin
        (* Repeatedly take a maximum clique, count its excess, and remove
           it; disjoint cliques give independent (additive) bounds. *)
        let sub, _ = Ugraph.induced cg comp in
        let remaining = ref sub in
        let continue = ref true in
        while !continue do
          let clique = max_clique !remaining in
          if Array.length clique <= k then continue := false
          else begin
            total := !total + excess_pairs (Array.length clique) k;
            let in_clique = Hashtbl.create 8 in
            Array.iter (fun v -> Hashtbl.replace in_clique v ()) clique;
            let keep =
              Array.of_list
                (List.filter
                   (fun i -> not (Hashtbl.mem in_clique i))
                   (List.init (Ugraph.n !remaining) Fun.id))
            in
            if Array.length keep <= k then continue := false
            else begin
              let sub', _ = Ugraph.induced !remaining keep in
              remaining := sub'
            end
          end
        done
      end)
    comps;
  !total
