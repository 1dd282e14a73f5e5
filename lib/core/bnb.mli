(** Weighted branch-and-bound k-coloring search.

    One engine serves two consumers: the exact reference colorer (unit
    edge weights) and the paper's Algorithm 1 BACKTRACK stage, where
    merged vertices carry multi-edges and therefore weighted conflict /
    stitch costs. The search assigns vertices in a connectivity-aware
    static order, prunes on partial cost against the incumbent, breaks
    color symmetry by capping each vertex's palette at one beyond the
    highest color used so far, and honors a node budget so it degrades
    into an anytime heuristic on oversized components. *)

type edge = {
  target : int;
  same_cost : int;  (** added when both endpoints share a color *)
  diff_cost : int;  (** added when they differ *)
}

type instance = { n : int; adj : edge list array }

val instance_of_graph : alpha:float -> Decomp_graph.t -> instance
(** Unit-weight instance: conflicts cost [Coloring.weight_conflict] when
    monochromatic, stitches cost [Coloring.stitch_weight ~alpha] when
    bichromatic. *)

val greedy : k:int -> instance -> int array
(** Quick greedy coloring (min local cost in search order), used to seed
    the incumbent. *)

val cost : instance -> int array -> int
(** Total scaled cost of a complete coloring. *)

type result = {
  colors : int array;
  scaled_cost : int;
  optimal : bool;  (** search space exhausted within the budget *)
  nodes : int;  (** branch nodes expanded *)
}

val node_cap : int
(** 2_000_000: the branch-node cap per search, the one every run solves
    under. *)

val solve :
  ?budget:Mpl_util.Timer.budget ->
  ?init:int array ->
  k:int ->
  instance ->
  result
(** Best coloring found. [init] seeds the incumbent (in addition to the
    internal greedy seed). Anytime under {!node_cap} expanded nodes. *)
