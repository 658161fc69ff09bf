(* Quickstart: the five-minute tour of the public API.

   Run with:  dune exec examples/quickstart.exe

   We solve one Do-All instance three ways — the oblivious baseline, the
   progress-tree algorithm DA(q), and the permutation algorithm PaDet —
   under the same adversary, and compare the work and message bills. *)

open Doall_sim
open Doall_core

let () =
  (* An instance: 8 processors, 64 tasks. The algorithms never learn the
     delay bound d; it parameterizes the adversary only. *)
  let p = 8 and t = 64 and d = 4 in

  (* 1. The high-level way: the Runner registry. *)
  print_endline "--- via the Runner registry ---";
  List.iter
    (fun algo ->
      let result =
        Runner.run (Runner.spec ~seed:42 ~algo ~adv:"uniform-delay" ~p ~t ~d ())
      in
      Format.printf "%-8s %a@." algo Metrics.pp result.Runner.metrics)
    [ "trivial"; "da-q4"; "padet" ];

  (* 2. The low-level way: build each piece yourself. *)
  print_endline "";
  print_endline "--- assembled by hand ---";
  let algorithm = Algo_da.make ~q:4 () in
  let adversary = Adversary.uniform_delay in
  let cfg = Config.make ~seed:42 ~p ~t () in
  let metrics = Engine.run_packed algorithm cfg ~d ~adversary () in
  Format.printf "DA(4) under uniform delays: %a@." Metrics.pp metrics;
  Format.printf "effort (W + M) = %d@." (Metrics.effort metrics);

  (* 3. Watch an execution: record a trace and render the timeline. *)
  print_endline "";
  print_endline "--- a small traced run ---";
  let result =
    Runner.run ~trace:true
      (Runner.spec ~seed:7 ~algo:"paran1" ~adv:"max-delay" ~p:4 ~t:12 ~d:3 ())
  in
  let trace = Option.get result.Runner.trace in
  Format.printf "%a@." Metrics.pp result.Runner.metrics;
  Format.printf "%a" Trace.pp_timeline
    (trace, 4, result.Runner.metrics.Metrics.sigma + 1);
  print_endline "(# = task performed, o = bookkeeping, H = halted)"
