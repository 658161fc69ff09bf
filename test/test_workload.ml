open Doall_workload
open Doall_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_checksum_deterministic () =
  let w = Workload.checksum ~t:16 in
  for z = 0 to 15 do
    check_int "replays identically" (Workload.run_task w z)
      (Workload.run_task w z)
  done

let test_checksum_distinct () =
  let w = Workload.checksum ~t:32 in
  let results = List.init 32 (Workload.run_task w) in
  check_int "results distinct" 32
    (List.length (List.sort_uniq compare results))

let test_range_check () =
  let w = Workload.checksum ~t:4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Workload.run_task: task out of range") (fun () ->
      ignore (Workload.run_task w 4))

let test_keyspace_scan () =
  let w = Workload.keyspace_scan ~t:5 ~shard_size:10 ~hit:(fun k -> k mod 7 = 0) in
  Alcotest.(check (list int)) "shard 0 hits" [ 0; 7 ] (Workload.run_task w 0);
  Alcotest.(check (list int)) "shard 2 hits" [ 21; 28 ] (Workload.run_task w 2)

let test_journal_counts () =
  let w = Workload.checksum ~t:4 in
  let j = Workload.Journal.create w in
  Workload.Journal.record j ~task:0;
  Workload.Journal.record j ~task:1;
  Workload.Journal.record j ~task:0;
  check_int "executions" 3 (Workload.Journal.executions j);
  check_int "distinct" 2 (Workload.Journal.distinct j);
  check_int "redundant" 1 (Workload.Journal.redundant j);
  check "incomplete" false (Workload.Journal.complete j);
  check "consistent" true (Workload.Journal.consistent j);
  Workload.Journal.record j ~task:2;
  Workload.Journal.record j ~task:3;
  check "complete" true (Workload.Journal.complete j)

let test_journal_results () =
  let w = Workload.checksum ~t:3 in
  let j = Workload.Journal.create w in
  Workload.Journal.record j ~task:2;
  Alcotest.(check (option int)) "recorded" (Some (Workload.run_task w 2))
    (Workload.Journal.result j 2);
  Alcotest.(check (option int)) "absent" None (Workload.Journal.result j 0);
  check_int "results list" 1 (List.length (Workload.Journal.results j))

let test_journal_catches_nonidempotence () =
  let w = Workload.broken_nonidempotent ~t:3 () in
  let j = Workload.Journal.create w in
  Workload.Journal.record j ~task:1;
  Workload.Journal.record j ~task:1;
  check "violation detected" false (Workload.Journal.consistent j);
  check_int "one violation" 1 (List.length (Workload.Journal.violations j))

let test_replay_simulated_run () =
  (* End-to-end: adversarial run -> trace -> journal; idempotence and
     completeness must hold with a real workload attached. *)
  let p = 6 and t = 30 and d = 4 in
  let w = Workload.flaky_but_idempotent ~t ~seed:99 in
  let result =
    Runner.run ~trace:true
      (Runner.spec ~seed:4 ~algo:"paran1" ~adv:"random-half" ~p ~t ~d ())
  in
  let trace = Option.get result.Runner.trace in
  check "sim completed" true result.Runner.metrics.Doall_sim.Metrics.completed;
  let j = Workload.Journal.create w in
  Workload.Journal.replay_trace j trace;
  check "all tasks executed" true (Workload.Journal.complete j);
  check "idempotence verified" true (Workload.Journal.consistent j);
  check_int "journal matches metrics"
    result.Runner.metrics.Doall_sim.Metrics.executions
    (Workload.Journal.executions j)

let test_replay_catches_bad_tasks_under_redundancy () =
  (* The same end-to-end loop flags a broken workload whenever the
     schedule forces redundancy. *)
  let p = 6 and t = 24 and d = 8 in
  let result =
    Runner.run ~trace:true
      (Runner.spec ~seed:5 ~algo:"paran2" ~adv:"max-delay" ~p ~t ~d ())
  in
  let trace = Option.get result.Runner.trace in
  let m = result.Runner.metrics in
  check "run had redundancy" true (Doall_sim.Metrics.redundant m > 0);
  let j = Workload.Journal.create (Workload.broken_nonidempotent ~t ()) in
  Workload.Journal.replay_trace j trace;
  check "violations surfaced" false (Workload.Journal.consistent j)

let prop_journal_accounting =
  QCheck2.Test.make ~name:"journal accounting identities" ~count:100
    QCheck2.Gen.(
      let* t = int_range 1 20 in
      let* ops = list_size (int_range 0 60) (int_range 0 (t - 1)) in
      return (t, ops))
    (fun (t, ops) ->
      let j = Workload.Journal.create (Workload.checksum ~t) in
      List.iter (fun task -> Workload.Journal.record j ~task) ops;
      Workload.Journal.executions j = List.length ops
      && Workload.Journal.distinct j
         = List.length (List.sort_uniq compare ops)
      && Workload.Journal.redundant j
         = List.length ops - Workload.Journal.distinct j
      && Workload.Journal.consistent j)

let suite =
  [
    Alcotest.test_case "checksum deterministic" `Quick
      test_checksum_deterministic;
    Alcotest.test_case "checksum distinct" `Quick test_checksum_distinct;
    Alcotest.test_case "range check" `Quick test_range_check;
    Alcotest.test_case "keyspace scan" `Quick test_keyspace_scan;
    Alcotest.test_case "journal counts" `Quick test_journal_counts;
    Alcotest.test_case "journal results" `Quick test_journal_results;
    Alcotest.test_case "journal catches non-idempotence" `Quick
      test_journal_catches_nonidempotence;
    Alcotest.test_case "replay a simulated run" `Quick
      test_replay_simulated_run;
    Alcotest.test_case "replay flags broken tasks" `Quick
      test_replay_catches_bad_tasks_under_redundancy;
    QCheck_alcotest.to_alcotest prop_journal_accounting;
  ]
