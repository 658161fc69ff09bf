(* Delay storm: watch work degrade gracefully as the network slows.

   Run with:  dune exec examples/delay_storm.exe

   The paper's central message, live: the same algorithm binary (which
   never learns d) is run under progressively slower networks. While
   d = o(t) the coordinated algorithms stay far below the oblivious p*t;
   as d approaches t they converge to it — Proposition 2.2 says nothing
   can do better there. The delay-sensitive lower bound of Theorem 3.1
   is printed alongside as the floor no algorithm can beat. *)

open Doall_core
open Doall_analysis

let p = 32
let t = 128

let () =
  Printf.printf
    "Delay storm on p=%d, t=%d: same algorithms, slower and slower network\n\n"
    p t;
  let algos = [ "da-q4"; "paran1"; "padet" ] in
  let tbl =
    Table.create ~title:"work as the delay bound grows (max-delay adversary)"
      ~columns:
        ([ "d" ] @ algos
        @ [ "lower bound"; "oblivious p*t" ])
  in
  let ds = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  List.iter
    (fun d ->
      let row =
        List.map
          (fun algo ->
            let r =
              Runner.run (Runner.spec ~seed:5 ~algo ~adv:"max-delay" ~p ~t ~d ())
            in
            Table.cell_int r.Runner.metrics.Doall_sim.Metrics.work)
          algos
      in
      Table.add_row tbl
        (Table.cell_int d :: row
        @ [
            Table.cell_float (Bounds.lower_bound ~p ~t ~d);
            Table.cell_int (p * t);
          ]))
    ds;
  Table.add_note tbl
    "graceful degradation: work rises with d and meets p*t only when d ~ t";
  Table.print tbl;
  (* The subquadratic window in one sentence. *)
  let w_at d =
    (Runner.run
       (Runner.spec ~seed:5 ~algo:"padet" ~adv:"max-delay" ~p ~t ~d ()))
      .Runner.metrics
      .Doall_sim.Metrics.work
  in
  Printf.printf
    "\nPaDet does %d work at d=1 (%.0f%% of p*t) but %d at d=%d (%.0f%%): \
     the whole value of delay-sensitive algorithms lives in that gap.\n"
    (w_at 1)
    (100.0 *. float_of_int (w_at 1) /. float_of_int (p * t))
    (w_at t) t
    (100.0 *. float_of_int (w_at t) /. float_of_int (p * t))
