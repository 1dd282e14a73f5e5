(* Every input the benchmark feeds the program, derived from the run's
   seed alone. The program only ever sees the generated layout texts and
   edit scripts. *)

module Benchgen = Mpl_layout.Benchgen
module Layout_io = Mpl_layout.Layout_io

(* An independent sub-seed for the [i]-th input of a run. *)
let derive seed i =
  Mpl_util.Rng.int (Mpl_util.Rng.create ((seed * 1_000_003) + i)) 1_000_000_000

let synth ~seed ~features ~gadgets =
  Benchgen.generate
    (Benchgen.synth ~stitch_gadgets:gadgets ~seed ~features ())

(* One of the paper's S-circuits, with the generator seed replaced: the
   same structural knobs (rows, hard blocks, native K5/K6 clusters),
   a fresh draw of the cells. *)
let circuit ~seed name =
  Benchgen.generate { (Benchgen.spec_of_circuit name) with Benchgen.seed }

(* A chain of [len] spatially local edit scripts of [count] edits each:
   script [i] applies to the layout the previous [i] scripts produced.
   Returns the scripts as text, the form the program receives. *)
let edit_chain ~seed ~count ~len base =
  let rec go i layout acc =
    if i = len then List.rev acc
    else
      let edits = Mpl.Eco.generate ~seed:(derive seed i) ~count layout in
      match Mpl.Eco.apply layout edits with
      | Ok (next, _) -> go (i + 1) next (Mpl.Eco.edits_to_string edits :: acc)
      | Error msg -> failwith ("edit chain: " ^ msg)
  in
  go 0 base []

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
