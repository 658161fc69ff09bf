(* Custom algorithm tutorial: implement Doall_sim.Algorithm.S yourself.

   Run with:  dune exec examples/custom_algorithm.exe

   The library's extension point is the Algorithm.S signature: provide
   per-processor state, a receive that merges knowledge, and a step that
   performs at most one task and submits at most one broadcast. This file
   writes the most obvious algorithm from scratch — "greedy": always
   perform the lowest task you don't know to be done, broadcast your
   knowledge every step — wires it into the engine, and then measures why
   the paper spends a whole section (4) on schedules.

   Greedy is exactly PA with every processor using the identity
   permutation: the worst possible list, with contention p*n. Every
   processor races down the same order, so whenever the adversary delays
   news, they all redo the same prefix. *)

open Doall_sim
open Doall_core
open Doall_analysis

(* ------------------------------------------------------------------ *)
(* 1. The custom algorithm: 40 lines, no magic.                        *)

module Greedy : Algorithm.S = struct
  let name = "greedy"

  type state = { know : Bitset.t; mutable halted : bool }
  type msg = Bitset.t

  (* Config deliberately lacks the delay bound d: you cannot cheat. *)
  let init (cfg : Config.t) ~pid:_ =
    { know = Bitset.create cfg.Config.t; halted = false }

  (* copy must be deep: the omniscient adversary clones states. *)
  let copy st = { st with know = Bitset.copy st.know }

  (* receive must be monotone: merge, never forget. *)
  let receive st ~src:_ msg = Bitset.union_into ~dst:st.know msg

  (* receive is a pure union that never reads src, so we may declare it
     merge-homomorphic: on constant-delay runs the engine folds all
     broadcasts of a step into one digest and delivers it once per
     receiver instead of p - 1 times. Declare None if unsure — it is
     only ever a performance hint, never a correctness requirement. *)
  let merge_homomorphic =
    Some
      (fun msgs ->
        let acc = Bitset.copy msgs.(0) in
        for i = 1 to Array.length msgs - 1 do
          Bitset.union_into ~dst:acc msgs.(i)
        done;
        acc)

  let is_done st = Bitset.is_full st.know
  let done_tasks st = st.know

  let step st =
    if st.halted then Algorithm.nothing
    else if is_done st then begin
      st.halted <- true;
      (* halting is only legal once you KNOW everything is done
         (Proposition 2.1) - the engine asserts it. *)
      Algorithm.result ~halt:true ()
    end
    else
      match Bitset.first_missing st.know with
      | None -> Algorithm.nothing
      | Some z ->
        Bitset.set st.know z;
        Algorithm.result ~performed:z ~broadcast:(Bitset.copy st.know) ()
end

(* ------------------------------------------------------------------ *)
(* 2. Run it: the engine neither knows nor cares that it's custom.     *)

let () =
  let p = 24 and t = 96 in
  Printf.printf
    "A hand-written algorithm vs the paper's schedules, p=%d t=%d:\n\n" p t;
  let tbl =
    Table.create ~title:"greedy (identity schedule) vs padet vs da-q4"
      ~columns:[ "d"; "greedy W"; "padet W"; "da-q4 W"; "greedy/padet" ]
  in
  List.iter
    (fun d ->
      let adversary () =
        (Runner.find_adv "max-delay").Runner.instantiate ~p ~t ~d
      in
      let cfg = Config.make ~seed:3 ~p ~t () in
      let greedy =
        Engine.run_packed (module Greedy) cfg ~d ~adversary:(adversary ()) ()
      in
      let padet =
        (Runner.run
           (Runner.spec ~seed:3 ~algo:"padet" ~adv:"max-delay" ~p ~t ~d ()))
          .Runner.metrics
      in
      let da =
        (Runner.run
           (Runner.spec ~seed:3 ~algo:"da-q4" ~adv:"max-delay" ~p ~t ~d ()))
          .Runner.metrics
      in
      Table.add_row tbl
        [
          Table.cell_int d;
          Table.cell_int greedy.Metrics.work;
          Table.cell_int padet.Metrics.work;
          Table.cell_int da.Metrics.work;
          Table.cell_ratio
            (float_of_int greedy.Metrics.work)
            (float_of_int padet.Metrics.work);
        ])
    [ 1; 4; 16; 48 ];
  Table.add_note tbl
    "greedy = PA with the identity list: contention p*n, so delayed news \
     makes everyone redo the same prefix; Section 4's low-contention \
     schedules are the entire difference";
  Table.print tbl;
  print_endline
    "\nTo make a custom algorithm available by name (CLI, benches), call\n\
     Runner.register_algorithm with a spec - see Doall_quorum.Register\n\
     for a complete template."
