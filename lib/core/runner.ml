open Doall_sim
open Doall_adversary

type algo_spec = {
  algo_name : string;
  doc : string;
  make : unit -> Algorithm.packed;
  deterministic : bool;
  liveness : [ `Any_survivor | `Needs_quorum ];
}

type adv_spec = {
  adv_name : string;
  adv_doc : string;
  instantiate : p:int -> t:int -> d:int -> Adversary.t;
}

let da_specs =
  List.map
    (fun q ->
      {
        algo_name = Printf.sprintf "da-q%d" q;
        doc =
          Printf.sprintf
            "deterministic progress-tree algorithm DA(%d) (Section 5)" q;
        make = (fun () -> Algo_da.make ~q ());
        deterministic = true;
        liveness = `Any_survivor;
      })
    [ 2; 3; 4; 5; 6; 7; 8 ]

let algorithms =
  [
    {
      algo_name = "trivial";
      doc = "oblivious baseline: every processor performs every task";
      make = (fun () -> Algo_trivial.make ());
      deterministic = true;
      liveness = `Any_survivor;
    };
    {
      algo_name = "paran1";
      doc = "randomized PA: one random permutation per processor (Sec. 6)";
      make = (fun () -> Algo_pa.make_ran1 ());
      deterministic = false;
      liveness = `Any_survivor;
    };
    {
      algo_name = "paran2";
      doc = "randomized PA: uniform random next task (Sec. 6)";
      make = (fun () -> Algo_pa.make_ran2 ());
      deterministic = false;
      liveness = `Any_survivor;
    };
    {
      algo_name = "padet";
      doc = "deterministic PA with a fixed low-d-contention list (Sec. 6)";
      make = (fun () -> Algo_pa.make_det ());
      deterministic = true;
      liveness = `Any_survivor;
    };
    {
      algo_name = "coord";
      doc =
        "synchronous-style rotating-coordinator baseline (cf. [10]); \
         timeouts assume a fast network";
      make = (fun () -> Algo_coord.make ());
      deterministic = true;
      liveness = `Any_survivor;
    };
  ]
  @ da_specs

let adversaries =
  [
    {
      adv_name = "fair";
      adv_doc = "everyone steps, messages arrive in one unit";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Adversary.fair);
    };
    {
      adv_name = "max-delay";
      adv_doc = "fair stepping, every message takes the full d";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Delay.into ~latency:Adversary.Maximal ~name:"max-delay"
            Delay.maximal);
    };
    {
      adv_name = "uniform-delay";
      adv_doc = "fair stepping, latency uniform on 1..d";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ -> Delay.into ~name:"uniform-delay" Delay.uniform);
    };
    {
      adv_name = "batch";
      adv_doc = "deliveries batched at stage boundaries (length min(d, t/6))";
      instantiate =
        (fun ~p:_ ~t ~d ->
          let stage_len = max 1 (min d (t / 6)) in
          Delay.into ~name:"batch" (Delay.stage_batched ~stage_len));
    };
    {
      adv_name = "solo";
      adv_doc = "only processor 0 ever advances";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Schedule.into ~name:"solo" (Schedule.solo 0));
    };
    {
      adv_name = "round-robin";
      adv_doc = "a rotating quarter of the processors advances";
      instantiate =
        (fun ~p ~t:_ ~d:_ ->
          Schedule.into ~name:"round-robin"
            (Schedule.round_robin ~width:(max 1 (p / 4))));
    };
    {
      adv_name = "harmonic";
      adv_doc = "processor i runs (i+1) times slower than processor 0";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ -> Schedule.into ~name:"harmonic" Schedule.harmonic_speeds);
    };
    {
      adv_name = "random-half";
      adv_doc = "each processor steps with probability 1/2; uniform delays";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Schedule.combine ~name:"random-half"
            ~schedule:(Schedule.random_subset ~prob:0.5) ~delay:Delay.uniform ());
    };
    {
      adv_name = "laggard";
      adv_doc = "omniscient: stalls processors about to perform fresh tasks";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Schedule.combine ~name:"laggard" ~schedule:Schedule.adaptive_laggard
            ~delay:Delay.maximal ());
    };
    {
      adv_name = "lb-det";
      adv_doc = "the Theorem 3.1 stage adversary (deterministic algorithms)";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Lb_deterministic.create ());
    };
    {
      adv_name = "lb-rand";
      adv_doc = "the Theorem 3.4 online adversary, coverage J_s selection";
      instantiate = (fun ~p:_ ~t:_ ~d:_ -> Lb_randomized.create ());
    };
    {
      adv_name = "lb-rand-random";
      adv_doc = "the Theorem 3.4 online adversary, random J_s (for PaRan2)";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ -> Lb_randomized.create ~selection:`Random ());
    };
    {
      adv_name = "partition";
      adv_doc = "two sites: fast within, full-d latency across the cut";
      instantiate =
        (fun ~p ~t:_ ~d:_ ->
          Delay.into ~name:"partition" (Delay.partition ~split:(max 1 (p / 2))));
    };
    {
      adv_name = "churn";
      adv_doc = "alternating calm (fast) and storm (full-d) periods";
      instantiate =
        (fun ~p:_ ~t ~d:_ ->
          let period = max 2 (t / 8) in
          Delay.into ~name:"churn"
            (Delay.churn ~calm:period ~storm:period));
    };
    {
      adv_name = "stragglers";
      adv_doc = "a third of the processors sit behind a full-d link";
      instantiate =
        (fun ~p ~t:_ ~d:_ ->
          Delay.into ~name:"stragglers"
            (Delay.targeted ~victims:(fun pid -> pid mod 3 = 0 && p > 1)));
    };
    {
      adv_name = "crash-half";
      adv_doc = "half the processors crash a third of the way in";
      instantiate =
        (fun ~p ~t ~d:_ ->
          Crash.into ~name:"crash-half"
            (Crash.at_time ~time:(max 1 (t / 3))
               ~pids:(List.init (p / 2) (fun i -> (2 * i) + 1))));
    };
    {
      adv_name = "crash-all-but-one";
      adv_doc = "everyone except processor 0 crashes early";
      instantiate =
        (fun ~p:_ ~t ~d:_ ->
          Crash.into ~name:"crash-all-but-one"
            (Crash.all_but_one ~survivor:0 ~time:(max 1 (t / 8))));
    };
    {
      adv_name = "crash-staggered";
      adv_doc = "the lowest live pid crashes at regular intervals";
      instantiate =
        (fun ~p ~t ~d:_ ->
          Crash.into ~name:"crash-staggered"
            (Crash.staggered ~every:(max 1 (t / max 1 p))));
    };
    (* -- chaos adversaries: beyond the paper's model (docs/FAULTS.md).
       Every one keeps pid 0 permanently up, so each registry algorithm
       stays live via its solo fallback even at 100% message loss. -- *)
    {
      adv_name = "lossy-half";
      adv_doc = "uniform delays and every message dropped with prob 1/2";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Adversary.with_faults (Fault.drop ~prob:0.5)
            (Delay.into ~name:"lossy-half" Delay.uniform));
    };
    {
      adv_name = "lossy-all";
      adv_doc = "100% message loss: algorithms must finish solo";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ -> Fault.into ~name:"lossy-all" Fault.drop_all);
    };
    {
      adv_name = "dup-storm";
      adv_doc = "uniform delays; heavy duplication and reordering";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Adversary.with_faults
            (Fault.all
               [
                 Fault.duplicate ~copies:2 ~prob:0.5; Fault.reorder ~prob:0.5;
               ])
            (Delay.into ~name:"dup-storm" Delay.uniform));
    };
    {
      adv_name = "flaky-restart";
      adv_doc = "processors cycle crash/recover (reset state); pid 0 stays up";
      instantiate =
        (fun ~p:_ ~t ~d:_ ->
          let crash, restart =
            Crash.flaky ~survivor:0 ~up:(max 4 (t / 4)) ~down:(max 2 (t / 8))
              ()
          in
          Schedule.combine ~name:"flaky-restart" ~delay:Delay.uniform ~crash
            ~restart ());
    };
    {
      adv_name = "chaos";
      adv_doc = "drops, duplicates, reorders and flaky restarts, all at once";
      instantiate =
        (fun ~p:_ ~t ~d:_ ->
          let crash, restart =
            Crash.flaky ~survivor:0 ~up:(max 4 (t / 4)) ~down:(max 2 (t / 8))
              ()
          in
          Schedule.combine ~name:"chaos" ~delay:Delay.uniform ~crash ~restart
            ~faults:
              (Fault.all
                 [
                   Fault.drop ~prob:0.3;
                   Fault.duplicate ~copies:2 ~prob:0.2;
                   Fault.reorder ~prob:0.3;
                 ])
            ());
    };
    (* -- shared-channel contention adversaries (docs/MODEL.md): the
       ordered and delayed classes over a multiple-access channel. Fair
       stepping and latency 1, so on a point-to-point run they all
       degenerate to [fair] (contention policies are inert there). -- *)
    {
      adv_name = "chan-ordered";
      adv_doc = "shared channel: serialize contenders lowest pid first";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Chan.into ~name:"chan-ordered"
            (Chan.policy ~name:"ordered-low" ~order:Chan.ordered_low ()));
    };
    {
      adv_name = "chan-ordered-high";
      adv_doc = "shared channel: serialize contenders highest pid first";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Chan.into ~name:"chan-ordered-high"
            (Chan.policy ~name:"ordered-high" ~order:Chan.ordered_high ()));
    };
    {
      adv_name = "chan-rotor";
      adv_doc = "shared channel: rotating grant across contenders";
      instantiate =
        (fun ~p:_ ~t:_ ~d:_ ->
          Chan.into ~name:"chan-rotor"
            (Chan.policy ~name:"rotor" ~order:(Chan.rotor 1) ()));
    };
    {
      adv_name = "chan-delayed";
      adv_doc =
        "shared channel: releases batched every min(d, 4) slots, so \
         submissions pile up and collide";
      instantiate =
        (fun ~p:_ ~t:_ ~d ->
          Chan.into ~name:"chan-delayed"
            (Chan.policy ~name:"delayed"
               ~hold:(Chan.batched ~cap:(max 2 (min d 4)))
               ()));
    };
    {
      adv_name = "chan-delayed-ordered";
      adv_doc =
        "shared channel: batched releases, then informed contenders \
         deferred behind redundant ones";
      instantiate =
        (fun ~p:_ ~t:_ ~d ->
          Chan.into ~name:"chan-delayed-ordered"
            (Chan.policy ~name:"delayed-ordered"
               ~order:Chan.most_informed_last
               ~hold:(Chan.batched ~cap:(max 2 (min d 4)))
               ()));
    };
  ]

let known_names to_name specs =
  String.concat ", " (List.map to_name specs)

(* Extension point: downstream libraries (e.g. doall.quorum) contribute
   algorithms without creating a dependency cycle. The ref is guarded by
   a mutex because [run_grid] workers call [find_algo] from other
   domains; registration itself should still happen before grids are
   launched (see runner.mli). *)
let registered : algo_spec list ref = ref []
let registered_mutex = Mutex.create ()

let register_algorithm spec =
  if List.exists (fun s -> s.algo_name = spec.algo_name) algorithms then
    invalid_arg
      (Printf.sprintf "Runner.register_algorithm: %S is a built-in name"
         spec.algo_name);
  Mutex.protect registered_mutex (fun () ->
      registered :=
        spec :: List.filter (fun s -> s.algo_name <> spec.algo_name) !registered)

let all_algorithms () =
  algorithms @ Mutex.protect registered_mutex (fun () -> List.rev !registered)

let find_algo name =
  match List.find_opt (fun s -> s.algo_name = name) (all_algorithms ()) with
  | Some s -> s
  | None ->
    failwith
      (Printf.sprintf "unknown algorithm %S (known: %s)" name
         (known_names (fun s -> s.algo_name) (all_algorithms ())))

let strategy_prefix = "strategy:"

let find_adv name =
  if String.starts_with ~prefix:strategy_prefix name then begin
    (* dynamic adversary: a strategy-DSL spec compiled on instantiation
       (docs/FAULTS.md). Parsed here so a bad spec fails at lookup like
       an unknown name; [Strategy.into] is pure, so instantiating per
       run from worker domains honors the thread-safety contract. *)
    let plen = String.length strategy_prefix in
    let spec = String.sub name plen (String.length name - plen) in
    match Doall_adversary.Strategy.of_spec spec with
    | Ok strategy ->
      {
        adv_name = name;
        adv_doc = "compiled from a strategy-DSL spec (docs/FAULTS.md)";
        instantiate =
          (fun ~p:_ ~t:_ ~d:_ -> Doall_adversary.Strategy.into strategy);
      }
    | Error msg ->
      failwith (Printf.sprintf "bad strategy spec %S: %s" spec msg)
  end
  else
    match List.find_opt (fun s -> s.adv_name = name) adversaries with
    | Some s -> s
    | None ->
      failwith
        (Printf.sprintf
           "unknown adversary %S (known: %s; or strategy:<spec>)" name
           (known_names (fun s -> s.adv_name) adversaries))

type run_spec = {
  spec_algo : string;
  spec_adv : string;
  p : int;
  t : int;
  d : int;
  seed : int;
  transport : Config.transport;
}

let spec ?(seed = 0) ?(transport = Config.Ptp) ~algo ~adv ~p ~t ~d () =
  { spec_algo = algo; spec_adv = adv; p; t; d; seed; transport }

(* point-to-point names carry no transport suffix, keeping every
   pre-transport golden pin (and the exp memo keys derived from specs)
   byte-identical *)
let transport_suffix = function
  | Config.Ptp -> ""
  | tr -> "@" ^ Config.transport_to_string tr

let spec_name s =
  Printf.sprintf "%s/%s/p%d/t%d/d%d/seed%d%s" s.spec_algo s.spec_adv s.p s.t
    s.d s.seed
    (transport_suffix s.transport)

let pp_spec ppf s =
  Format.fprintf ppf "%s/%s/p=%d/t=%d/d=%d/seed=%d%s" s.spec_algo s.spec_adv
    s.p s.t s.d s.seed
    (transport_suffix s.transport)

(* Optional beyond-the-model overlay: [faults] replaces the adversary's
   fault policy for this run ([--faults] on the CLI). *)
let overlay ?faults adversary =
  match faults with
  | None -> adversary
  | Some f -> Adversary.with_faults f adversary

(* Process-wide count of engine runs started through the runner — atomic
   because grid cells execute in pool worker domains. The experiment
   subsystem's dedup tests pin deltas of this counter to prove each cell
   simulates exactly once. *)
let sims = Atomic.make 0
let sim_count () = Atomic.get sims

type result = {
  metrics : Metrics.t;
  spec : run_spec;
  wall_s : float;
  obs : Probe.snapshot option;
  spans : Span.snapshot option;
  trace : Trace.t option;
}

(* Probe and profiler are fresh per run, never shared across grid cells
   or domains. *)
let run ?max_time ?(probes = false) ?(profile = false) ?check ?faults
    ?(trace = false) s =
  Atomic.incr sims;
  let (module A : Algorithm.S) = (find_algo s.spec_algo).make () in
  let adversary =
    overlay ?faults ((find_adv s.spec_adv).instantiate ~p:s.p ~t:s.t ~d:s.d)
  in
  let cfg = Config.make ~seed:s.seed ~transport:s.transport ~p:s.p ~t:s.t () in
  let probe = if probes then Some (Probe.create ()) else None in
  let spans = if profile then Some (Span.create ()) else None in
  let trace = if trace then Some (Trace.create ()) else None in
  let t0 = Unix.gettimeofday () in
  let module E = Engine.Make (A) in
  let eng = E.create ?probe ?spans ?trace ?check cfg ~d:s.d ~adversary in
  let metrics = E.run ?max_time eng in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    metrics;
    spec = s;
    wall_s;
    obs = Option.map Probe.snapshot probe;
    spans = Option.map Span.snapshot spans;
    trace;
  }

(* ------------------------------------------------------------------ *)
(* Parallel grids.                                                     *)

exception Grid_incomplete of run_spec list

let pp_grid_incomplete ppf specs =
  let n = List.length specs in
  Format.fprintf ppf
    "Runner.Grid_incomplete: %d cell(s) hit the time cap without \
     completing:"
    n;
  (* cap the listing so a mostly-capped 252-run grid stays readable *)
  let shown = 12 in
  List.iteri
    (fun i s -> if i < shown then Format.fprintf ppf "@\n  %a" pp_spec s)
    specs;
  if n > shown then Format.fprintf ppf "@\n  ... and %d more" (n - shown)

let () =
  Printexc.register_printer (function
    | Grid_incomplete specs ->
      Some (Format.asprintf "%a" pp_grid_incomplete specs)
    | _ -> None)

let grid ?(seeds = [ 0 ]) ?transport ~algos ~advs ~points () =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun adv ->
          List.concat_map
            (fun (p, t, d) ->
              List.map
                (fun seed -> spec ~seed ?transport ~algo ~adv ~p ~t ~d ())
                seeds)
            points)
        advs)
    algos

let run_grid ?jobs ?pool ?max_time ?(probes = false) ?(profile = false)
    ?check ?faults ?on_cell specs =
  (* Resolve names in the submitting domain so an unknown algorithm or
     adversary fails fast, before any domain is spawned. *)
  List.iter
    (fun s ->
      ignore (find_algo s.spec_algo);
      ignore (find_adv s.spec_adv))
    specs;
  (* [on_cell] fires in completion order, from whichever worker domain
     finished the cell; a private mutex serializes invocations and the
     finished-count increment. *)
  let notify =
    match on_cell with
    | None -> fun _ -> ()
    | Some cb ->
      let m = Mutex.create () in
      let finished = ref 0 in
      let total = List.length specs in
      fun r ->
        Mutex.protect m (fun () ->
            incr finished;
            cb ~finished:!finished ~total r)
  in
  let one s =
    let r = run ?max_time ~probes ~profile ?check ?faults s in
    notify r;
    if r.metrics.Metrics.completed then Ok r else Error s
  in
  let results =
    match pool with
    | Some pool -> Pool.map pool one specs
    | None -> Pool.run ?jobs one specs
  in
  match List.filter_map (function Error s -> Some s | Ok _ -> None) results with
  | [] -> List.map (function Ok r -> r | Error _ -> assert false) results
  | timeouts -> raise (Grid_incomplete timeouts)
