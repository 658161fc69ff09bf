open Doall_adversary

(* Well above what any liveness-safe strategy needs at experiment scale
   (laggard + max delay completes in O(t + d·t/p) ticks), well below the
   engine's own safety net, so a livelocking candidate is charged a
   bounded, predictable cost. *)
let default_max_time ~p ~t ~d = 4000 + (60 * (t + d)) + (20 * p)

let evaluator ?(check = true) ?max_time ?transport ~algo ~p ~t ~d ~seed () =
  let max_time =
    match max_time with Some m -> m | None -> default_max_time ~p ~t ~d
  in
  fun strategy ->
    let spec =
      Runner.spec ~seed ?transport ~algo
        ~adv:("strategy:" ^ Strategy.to_spec strategy)
        ~p ~t ~d ()
    in
    match Runner.run ~max_time ~check spec with
    | result ->
        let m = result.Runner.metrics in
        {
          Synth.e_work = m.Doall_sim.Metrics.work;
          e_messages = m.messages;
          e_sigma = m.sigma;
          e_completed = m.completed;
          e_violation = None;
          e_wall = result.wall_s;
        }
    | exception Doall_sim.Oracle.Invariant_violation v ->
        {
          Synth.e_work = 0;
          e_messages = 0;
          e_sigma = 0;
          e_completed = false;
          e_violation =
            Some (Format.asprintf "%a" Doall_sim.Oracle.pp_violation v);
          e_wall = 0.;
        }

let default_space ~algo =
  match (Runner.find_algo algo).Runner.liveness with
  | `Needs_quorum -> Strategy.Quorum_safe
  | `Any_survivor -> Strategy.Live

(* Hand specs the search must at least tie: the strongest registry
   adversaries, re-expressed in the DSL. *)
let default_init ~space =
  let specs =
    match space with
    | Strategy.Quorum_safe ->
        [
          "sched=all;delay=max";
          "sched=rr:2;delay=stage:4";
          "sched=harmonic;delay=uniform";
        ]
    | Strategy.In_model ->
        [
          "sched=all;delay=max";
          "sched=laggard;delay=max";
          "sched=all;delay=max;crash=flaky:4:4";
          "sched=laggard;delay=stage:8;crash=staggered:8";
        ]
    | Strategy.Live | Strategy.Full ->
        [
          "sched=all;delay=max;fault=drop:1";
          "sched=laggard;delay=max";
          "sched=laggard;delay=max;fault=drop:1";
          "sched=all;delay=max;crash=flaky:4:4;fault=drop:0.9;fault=dup:0.2:2;fault=reorder:0.3";
          "sched=harmonic;delay=stage:4;crash=staggered:8";
        ]
  in
  List.filter_map
    (fun s -> match Strategy.of_spec s with Ok t -> Some t | Error _ -> None)
    specs

let search ?(seed = 0) ?population ?elite ?fitness ?space ?init ?check
    ?max_time ?transport ?wall_cap_s ?on_generation ?pool ?jobs ~algo ~p ~t
    ~d ~budget () =
  (* channel targets search the chan-rule dimension too; ptp searches
     stay RNG-identical to before the transport axis existed *)
  let chan =
    match transport with
    | Some (Doall_sim.Config.Channel _) -> true
    | Some Doall_sim.Config.Ptp | None -> false
  in
  let space =
    match (space, chan) with
    | Some (Strategy.Live | Strategy.Full), true ->
        (* the channel has its own loss model; the engine rejects
           message-fault policies on it, so a fault space cannot run *)
        invalid_arg
          "Worstcase.search: message-fault spaces (live/full) require the \
           point-to-point transport; use in-model on a channel"
    | Some s, _ -> s
    | None, true -> (
        match default_space ~algo with
        | Strategy.Live | Strategy.Full -> Strategy.In_model
        | s -> s)
    | None, false -> default_space ~algo
  in
  let init = match init with Some l -> l | None -> default_init ~space in
  let eval = evaluator ?check ?max_time ?transport ~algo ~p ~t ~d ~seed () in
  Synth.search ~seed ?population ?elite ~space ~init ?fitness ~chan
    ?wall_cap_s ?on_generation ?pool ?jobs ~eval ~p ~t ~d ~budget ()
