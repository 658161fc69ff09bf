(* perfbench: the simulator's benchmark harness.

   One process runs one workload, so the peak RSS it reports belongs to
   that workload. Every cell is driven through the simulator's public
   entry points (Runner registries, the packed algorithm's [init],
   Engine.Make's create/run/state, Runner.run_grid) and timed from
   outside; the only instrumentation inside the engine is the existing
   [?spans]/[?probe] pair. Every simulated statistic is checked, and
   the last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   NOTES.md documents the workloads, the metric -> layer -> workload
   map and the pins. *)

open Doall_sim
open Doall_core

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile, q in (0, 1] *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  cells : int -> Runner.run_spec list;  (** the cells, from the seed *)
  check : bool;  (** invariant oracle on every cell *)
  coverage_gate : bool;
      (** traced runs must attribute >= 90% of wall to timed layers *)
}

let headline seed =
  List.map
    (fun algo ->
      Runner.spec ~seed ~algo ~adv:"max-delay" ~p:256 ~t:4096 ~d:16 ())
    [ "paran1"; "padet"; "da-q4" ]

let uniform seed =
  [ Runner.spec ~seed ~algo:"paran1" ~adv:"uniform-delay" ~p:256 ~t:4096 ~d:16 () ]

let da_large_t seed =
  [ Runner.spec ~seed ~algo:"da-q4" ~adv:"max-delay" ~p:256 ~t:262144 ~d:8 () ]

(* 37 algorithm x adversary x transport combinations x 24 seeds = 888.
   awq sits out lossy-half and chaos: its Needs_quorum liveness honestly
   hits the time cap there. *)
let sweep seed =
  let seeds = List.init 24 (fun i -> seed + i) in
  let points = [ (32, 256, 8) ] in
  Runner.grid ~seeds ~points
    ~algos:[ "paran1"; "paran2"; "padet"; "da-q4"; "coord" ]
    ~advs:[ "fair"; "max-delay"; "lb-det"; "crash-half"; "lossy-half"; "chaos" ]
    ()
  @ Runner.grid ~seeds ~points ~algos:[ "awq-q4" ]
      ~advs:[ "fair"; "max-delay"; "uniform-delay" ]
      ()
  @ Runner.grid ~seeds ~points
      ~transport:(Config.Channel Config.Detectable)
      ~algos:[ "paran1"; "da-q4" ]
      ~advs:[ "chan-ordered"; "chan-delayed" ]
      ()

let workloads =
  [
    { name = "headline-maxdelay"; cells = headline; check = false; coverage_gate = true };
    { name = "uniform-delay"; cells = uniform; check = false; coverage_gate = true };
    { name = "da-large-t"; cells = da_large_t; check = false; coverage_gate = true };
    { name = "sweep-check"; cells = sweep; check = true; coverage_gate = false };
  ]

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)

type gc_delta = {
  minor_w : float;
  promoted_w : float;
  major_w : float;
  major_collections : int;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_w = b.minor_words -. a.minor_words;
    promoted_w = b.promoted_words -. a.promoted_words;
    major_w = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
  }

type layers = {
  phases : Span.snapshot;  (** the engine's own phase totals *)
  probe : Probe.snapshot;
  gc_setup : gc_delta;  (** lookup + create *)
  gc_run : gc_delta;
  states_words : int;  (** reachable from the array of every state *)
}

type outcome = {
  spec : Runner.run_spec;
  result : (Metrics.t, string) result;
  start : float;
  lookup_s : float;  (** registries, adversary construction, Config *)
  create_s : float;  (** Engine.Make.create: every A.init + transport *)
  run_s : float;  (** Engine.Make.run *)
  check_s : float;  (** the per-cell statistic checks *)
  aux_s : float;  (** traced-only measuring after the checks; not wall *)
  layers : layers option;
}

let verify (s : Runner.run_spec) (m : Metrics.t) ~global_done =
  if not m.completed then Error "hit the time cap"
  else if global_done <> s.t then
    Error (Printf.sprintf "%d of %d tasks globally done" global_done s.t)
  else if Array.fold_left ( + ) 0 m.per_proc_work <> m.work then
    Error "per-processor work does not sum to W"
  else if m.executions < s.t then Error "fewer executions than tasks"
  else if m.work < m.executions then Error "W below the executions it counts"
  else Ok m

let failed_outcome spec start msg =
  {
    spec; result = Error msg; start;
    lookup_s = now () -. start; create_s = 0.; run_s = 0.; check_s = 0.;
    aux_s = 0.; layers = None;
  }

let run_cell ~check ~traced (s : Runner.run_spec) =
  let g0 = if traced then Some (Gc.quick_stat ()) else None in
  let t0 = now () in
  try
    let aspec = Runner.find_algo s.spec_algo in
    let adversary = (Runner.find_adv s.spec_adv).instantiate ~p:s.p ~t:s.t ~d:s.d in
    let cfg = Config.make ~seed:s.seed ~transport:s.transport ~p:s.p ~t:s.t () in
    let module A = (val aspec.make () : Algorithm.S) in
    let module E = Engine.Make (A) in
    let probe = if traced then Some (Probe.create ()) else None in
    let spans = if traced then Some (Span.create ()) else None in
    let t1 = now () in
    let eng = E.create ?probe ?spans ~check cfg ~d:s.d ~adversary in
    let t2 = now () in
    let g1 = if traced then Some (Gc.quick_stat ()) else None in
    let m = E.run eng in
    let t3 = now () in
    let g2 = if traced then Some (Gc.quick_stat ()) else None in
    let result = verify s m ~global_done:(Bitset.cardinal (E.global_done eng)) in
    let t4 = now () in
    let layers =
      match (g0, g1, g2, probe, spans) with
      | Some g0, Some g1, Some g2, Some probe, Some spans ->
        let states = Array.init s.p (E.state eng) in
        Some
          {
            phases = Span.snapshot spans;
            probe = Probe.snapshot probe;
            gc_setup = gc_delta g0 g1;
            gc_run = gc_delta g1 g2;
            states_words = Obj.reachable_words (Obj.repr states);
          }
      | _ -> None
    in
    {
      spec = s; result; start = t0;
      lookup_s = t1 -. t0; create_s = t2 -. t1; run_s = t3 -. t2;
      check_s = t4 -. t3; aux_s = now () -. t4; layers;
    }
  with e -> failed_outcome s t0 (Printexc.to_string e)

(* The engine switches the wire to Delta exactly when the broadcast
   stream is on (engine.ml: point-to-point, constant declared latency,
   no faults, no restarts); the init pass builds states the same way. *)
let streams (s : Runner.run_spec) (adv : Adversary.t) =
  s.transport = Config.Ptp
  && adv.latency <> Adversary.Variable
  && Option.is_none adv.faults && Option.is_none adv.restart

(* Every [A.init cfg ~pid] of a cell, timed in its own pass. *)
let init_pass (s : Runner.run_spec) =
  let aspec = Runner.find_algo s.spec_algo in
  let adv = (Runner.find_adv s.spec_adv).instantiate ~p:s.p ~t:s.t ~d:s.d in
  let cfg = Config.make ~seed:s.seed ~transport:s.transport ~p:s.p ~t:s.t () in
  let cfg = if streams s adv then Config.with_wire cfg Config.Delta else cfg in
  let module A = (val aspec.make () : Algorithm.S) in
  let t0 = now () in
  for pid = 0 to s.p - 1 do
    ignore (Sys.opaque_identity (A.init cfg ~pid))
  done;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Pins and failure accounting                                         *)

type triple = int * int * int

let triple (m : Metrics.t) = (m.work, m.messages, m.sigma)
let pp_triple (w, m, s) = Printf.sprintf "(W=%d, M=%d, sigma=%d)" w m s

(* [cell <spec-name> W M sigma] (a name ending in "/seed*" holds for
   every seed) and [digest <workload> <seed> <md5>]; '#' starts a
   comment. *)
type pins = {
  by_cell : (string, triple) Hashtbl.t;
  by_workload : (string * int, string) Hashtbl.t;  (** digests *)
}

let load_pins path =
  let pins = { by_cell = Hashtbl.create 16; by_workload = Hashtbl.create 8 } in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ "cell"; name; w; m; s ] ->
              Hashtbl.replace pins.by_cell name
                (int_of_string w, int_of_string m, int_of_string s)
            | [ "digest"; wl; seed; hex ] ->
              Hashtbl.replace pins.by_workload (wl, int_of_string seed) hex
            | _ -> failwith (Printf.sprintf "%s: bad pin line %S" path line)
        done
      with End_of_file -> ());
  pins

let any_seed_name (s : Runner.run_spec) =
  Runner.spec_name { s with seed = 0 }
  |> String.split_on_char '/'
  |> List.map (fun part -> if part = "seed0" then "seed*" else part)
  |> String.concat "/"

let pin_of pins s =
  match Hashtbl.find_opt pins.by_cell (Runner.spec_name s) with
  | Some t -> Some t
  | None -> Hashtbl.find_opt pins.by_cell (any_seed_name s)

let digest triples =
  List.map
    (fun (s, (w, m, sg)) ->
      Printf.sprintf "%s %d %d %d\n" (Runner.spec_name s) w m sg)
    triples
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* Run-wide ledger: every cell run is one attempt; the first successful
   run of a cell becomes the reference every later run must equal. *)
type ledger = {
  pins : pins;
  reference : (string, triple) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let fail ledger msg =
  ledger.failed <- ledger.failed + 1;
  if List.length ledger.errors < 20 then ledger.errors <- msg :: ledger.errors

(* Judges one cell run's statistics. *)
let judge ledger s (r : (Metrics.t, string) result) =
  ledger.attempted <- ledger.attempted + 1;
  let name = Runner.spec_name s in
  match r with
  | Error msg -> fail ledger (Printf.sprintf "%s: %s" name msg)
  | Ok m -> (
    let got = triple m in
    let mismatch what want =
      fail ledger
        (Printf.sprintf "%s: %s %s, got %s" name what (pp_triple want)
           (pp_triple got))
    in
    match (pin_of ledger.pins s, Hashtbl.find_opt ledger.reference name) with
    | Some want, _ when want <> got -> mismatch "pinned" want
    | _, Some want when want <> got -> mismatch "earlier run gave" want
    | _ -> Hashtbl.replace ledger.reference name got)

(* A rep's digest over every cell. A mismatch with the pin that no cell
   check already explains fails every cell of the rep, since the digest
   cannot say which one moved. *)
let judge_digest ledger ~workload ~seed ~cells ~explained hex =
  match Hashtbl.find_opt ledger.pins.by_workload (workload, seed) with
  | Some want when want <> hex && not explained ->
    fail ledger
      (Printf.sprintf "%s seed %d: digest %s, pinned %s" workload seed hex want);
    ledger.failed <- ledger.failed + cells - 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          String.sub line 6 (String.length line - 6)
          |> String.split_on_char ' '
          |> List.concat_map (String.split_on_char '\t')
          |> List.find_map int_of_string_opt
          |> Option.value ~default:0
        | _ -> scan ()
      in
      scan ())

(* Runs [f ()] in a forked child on a copy of the ledger and adopts the
   child's ledger afterwards. Each rep so starts on a fresh heap, as a
   CLI run does, and its peak RSS is its own. *)
let in_child (type a) ledger (f : unit -> a) : (a, string) result =
  Gc.compact ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (v, ledger) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let got = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    let status =
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED n -> Printf.sprintf "exited with %d" n
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "killed by signal %d" n
    in
    match got with
    | Some ((v : (a, string) result), (child : ledger)) ->
      ledger.attempted <- child.attempted;
      ledger.failed <- child.failed;
      ledger.errors <- child.errors;
      Hashtbl.reset ledger.reference;
      Hashtbl.iter (Hashtbl.replace ledger.reference) child.reference;
      v
    | None -> Error ("child process " ^ status))

(* A rep or pass whose process died: every cell of it failed. *)
let lost ledger cells msg =
  List.iter (fun s -> judge ledger s (Error msg)) cells

type rep = {
  wall_s : float;  (** first registry call to last statistic checked *)
  spec_s : float;  (** building the cell list *)
  outcomes : outcome list;
  init_s : float;  (** the separate A.init pass (traced reps only) *)
  hex : string;
  rss_mb : float;  (** the rep's process VmHWM *)
}

let setup_of r = r.spec_s +. sum (fun o -> o.lookup_s +. o.create_s) r.outcomes

let work_of r =
  isum (fun o -> match o.result with Ok m -> m.Metrics.work | Error _ -> 0) r.outcomes

(* A forked child first writes its minor heap during the rep's setup,
   paying one copy-on-write fault per page; filling the heap once before
   timing takes that cost, which no cell of a longer-lived process pays,
   out of setup_s. *)
let warm_minor_heap () =
  let words = (Gc.get ()).minor_heap_size in
  for _ = 1 to (words / 2) + 1 do
    ignore (Sys.opaque_identity (ref 0))
  done

let run_rep ledger w ~seed ~traced =
  warm_minor_heap ();
  let t0 = now () in
  let cells = w.cells seed in
  let spec_s = now () -. t0 in
  let outcomes = List.map (run_cell ~check:w.check ~traced) cells in
  let failed_before = ledger.failed in
  List.iter (fun o -> judge ledger o.spec o.result) outcomes;
  let hex =
    digest
      (List.map
         (fun o ->
           (o.spec, match o.result with Ok m -> triple m | Error _ -> (-1, -1, -1)))
         outcomes)
  in
  judge_digest ledger ~workload:w.name ~seed ~cells:(List.length cells)
    ~explained:(ledger.failed > failed_before) hex;
  let wall_s = now () -. t0 -. sum (fun o -> o.aux_s) outcomes in
  (* after the rep, on a heap as settled as the one create ran on *)
  let init_s =
    if traced then begin
      Gc.compact ();
      sum init_pass cells
    end
    else 0.
  in
  { wall_s; spec_s; outcomes; init_s; hex; rss_mb = float (vm_hwm_kb ()) /. 1024. }

(* Alternates untraced and (when [traced]) traced reps until [seconds]
   have passed and each kind has at least [min_reps]. *)
let run_reps ledger w ~seed ~seconds ~min_reps ~traced =
  let t0 = now () in
  (* a rep whose process died is counted as failed and not retried
     more than twice *)
  let rec go ~deaths plain tr =
    let enough l = List.length l >= min_reps in
    if deaths > 2
       || (now () -. t0 >= seconds && enough plain && ((not traced) || enough tr))
    then (List.rev plain, List.rev tr)
    else
      let traced = traced && List.length tr < List.length plain in
      match in_child ledger (fun () -> run_rep ledger w ~seed ~traced) with
      | Ok r when traced -> go ~deaths plain (r :: tr)
      | Ok r -> go ~deaths (r :: plain) tr
      | Error msg ->
        lost ledger (w.cells seed) msg;
        go ~deaths:(deaths + 1) plain tr
  in
  go ~deaths:0 [] []

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type value = F of float | I of int
type metric = { name : string; value : value; unit_ : string }

let flt name unit_ v = { name; value = F v; unit_ }
let cnt name unit_ v = { name; value = I v; unit_ }

let end_to_end reps =
  let per g = median (List.map g reps) in
  [
    flt "wall_s" "s" (per (fun r -> r.wall_s));
    flt "setup_s" "s" (per setup_of);
    flt "sim_steps_per_s" "steps/s"
      (per (fun r -> float (work_of r) /. (r.wall_s -. setup_of r)));
    flt "cells_per_s" "cells/s"
      (per (fun r -> float (List.length r.outcomes) /. r.wall_s));
    flt "rss_peak_mb" "MB" (per (fun r -> r.rss_mb));
  ]

let phase o name =
  match o.layers with
  | None -> (0., 0)
  | Some l -> Option.value ~default:(0., 0) (List.assoc_opt name l.phases)

let phase_s name r = sum (fun o -> fst (phase o name)) r.outcomes
let phase_n name r = isum (fun o -> snd (phase o name)) r.outcomes
let engine_phases = [ "deliver"; "algo_step"; "adversary"; "bcast_maint"; "oracle" ]

let layer_sum f r =
  sum (fun o -> match o.layers with Some l -> f l | None -> 0.) r.outcomes

let counter name r =
  isum
    (fun o ->
      match o.layers with
      | Some l -> Option.value ~default:0 (List.assoc_opt name l.probe.counters)
      | None -> 0)
    r.outcomes

let gauge_max name r =
  List.fold_left
    (fun acc o ->
      match o.layers with
      | Some l -> (
        match List.assoc_opt name l.probe.gauges with
        | Some (_, mx) -> max acc mx
        | None -> acc)
      | None -> acc)
    0 r.outcomes

let messages_of r =
  isum (fun o -> match o.result with Ok m -> m.Metrics.messages | Error _ -> 0) r.outcomes

(* Wall time covered by a timed leaf layer: spec construction, lookup,
   create, the engine's phases, the checks. The rest of the engine's
   run (its tick loop outside every phase) is untraced. *)
let covered_s r =
  r.spec_s
  +. sum (fun o -> o.lookup_s +. o.create_s +. o.check_s) r.outcomes
  +. List.fold_left (fun acc p -> acc +. phase_s p r) 0. engine_phases

(* Per-layer numbers of one traced rep; the run reports their medians. *)
let rep_layers r =
  let run_s = sum (fun o -> o.run_s) r.outcomes in
  let work = float (work_of r) in
  let msgs = float (messages_of r) in
  let transport_s = phase_s "deliver" r +. phase_s "bcast_maint" r in
  let states_mb =
    List.fold_left
      (fun acc o ->
        match o.layers with
        | Some l -> Float.max acc (float (l.states_words * (Sys.word_size / 8)) /. 1048576.)
        | None -> acc)
      0. r.outcomes
  in
  [
    flt "runner.lookup_s" "s" (sum (fun o -> o.lookup_s) r.outcomes);
    flt "algo.init_s" "s" r.init_s;
    flt "engine.create_s" "s" (sum (fun o -> o.create_s) r.outcomes);
    flt "gc.setup.minor_mw" "Mw" (layer_sum (fun l -> l.gc_setup.minor_w) r /. 1e6);
    flt "gc.setup.major_mw" "Mw" (layer_sum (fun l -> l.gc_setup.major_w) r /. 1e6);
    flt "mem.states_mb" "MB" states_mb;
    flt "engine.run_s" "s" run_s;
    flt "engine.ns_per_step" "ns" (run_s /. work *. 1e9);
    flt "engine.deliver_s" "s" (phase_s "deliver" r);
    cnt "engine.deliver_count" "count" (phase_n "deliver" r);
    flt "engine.bcast_maint_s" "s" (phase_s "bcast_maint" r);
    cnt "engine.bcast_maint_count" "count" (phase_n "bcast_maint" r);
    flt "transport.ns_per_msg" "ns" (transport_s /. Float.max 1. msgs *. 1e9);
    flt "engine.algo_step_s" "s" (phase_s "algo_step" r);
    cnt "engine.algo_step_count" "count" (phase_n "algo_step" r);
    flt "engine.adversary_s" "s" (phase_s "adversary" r);
    flt "engine.oracle_s" "s" (phase_s "oracle" r);
    flt "gc.run.minor_mw" "Mw" (layer_sum (fun l -> l.gc_run.minor_w) r /. 1e6);
    flt "gc.run.promoted_mw" "Mw" (layer_sum (fun l -> l.gc_run.promoted_w) r /. 1e6);
    cnt "gc.run.major_collections" "count"
      (isum (fun o -> match o.layers with Some l -> l.gc_run.major_collections | None -> 0) r.outcomes);
    cnt "net.sends" "count" (counter "net.sends" r);
    cnt "net.deliveries" "count" (counter "net.deliveries" r);
    cnt "net.drops" "count" (counter "net.drops" r);
    cnt "net.dups" "count" (counter "net.dups" r);
    cnt "net.collisions" "count" (counter "net.collisions" r);
    cnt "net.stream_digest_bytes" "B" (gauge_max "net.stream_digest_bytes" r);
    flt "untraced_s" "s" (r.wall_s -. covered_s r);
  ]

let median_metrics per_rep =
  match per_rep with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun k m ->
        let vs = List.map (fun ms -> (List.nth ms k).value) per_rep in
        let value =
          match m.value with
          | F _ -> F (median (List.map (function F x -> x | I n -> float n) vs))
          | I _ ->
            (* counts follow the simulation, not the clock: every rep
               gives the same one, the median just picks it *)
            I (int_of_float (median (List.map (function I n -> float n | F x -> x) vs)))
        in
        { m with value })
      first

(* Runner.run_grid over the workload's cells at [jobs]: wall, and the
   summed per-cell engine wall the runner reports. *)
let grid_pass ledger w ~seed ~jobs =
  let cells = w.cells seed in
  let pass () =
    let t0 = now () in
    match Runner.run_grid ~jobs ~check:w.check cells with
    | results ->
      let wall = now () -. t0 in
      List.iter2
        (fun s (r : Runner.result) -> judge ledger s (Ok r.metrics))
        cells results;
      (wall, sum (fun (r : Runner.result) -> r.wall_s) results)
    | exception e ->
      lost ledger cells ("run_grid: " ^ Printexc.to_string e);
      (now () -. t0, 0.)
  in
  match in_child ledger pass with
  | Ok v -> v
  | Error msg ->
    lost ledger cells msg;
    (1., 0.)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_value = function
  | I n -> string_of_int n
  | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | F _ -> "0"

let print_metric m =
  Printf.printf "metric %-26s %s %s\n" m.name (json_value m.value) m.unit_

let print_result ledger metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_value m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ledger.failed = 0) ledger.attempted ledger.failed
    (String.concat ", " body)

(* Harness spans of the traced reps as JSONL: rep > cell > lookup /
   create / run / check, with the engine's phase totals under run.
   Phase records carry a total and an enter count, not an interval. *)
let write_spans path reps =
  let oc = open_out path in
  let next = ref 0 in
  let emit ?(count = 1) ~parent name start dur =
    incr next;
    Printf.fprintf oc
      "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
       \"dur_s\": %.9f, \"count\": %d}\n"
      !next parent name start dur count;
    !next
  in
  List.iter
    (fun r ->
      let start = match r.outcomes with o :: _ -> o.start | [] -> 0. in
      let rep = emit ~parent:0 "rep" start r.wall_s in
      List.iter
        (fun o ->
          let cell_s = o.lookup_s +. o.create_s +. o.run_s +. o.check_s in
          let cell = emit ~parent:rep ("cell " ^ Runner.spec_name o.spec) o.start cell_s in
          let at = ref o.start in
          let child name dur =
            let id = emit ~parent:cell name !at dur in
            at := !at +. dur;
            id
          in
          ignore (child "lookup" o.lookup_s);
          ignore (child "create" o.create_s);
          let run_start = !at in
          let run = child "run" o.run_s in
          ignore (child "check" o.check_s);
          List.iter
            (fun p ->
              let total, count = phase o p in
              ignore (emit ~count ~parent:run ("engine." ^ p) run_start total))
            engine_phases)
        r.outcomes)
    reps;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage =
  "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] --pins FILE"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 25. in
  let trace = ref 0 and pins_path = ref "" and min_reps = ref 3 in
  let spans_out = ref "" and emit_pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring window (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--pins", Arg.Set_string pins_path, "FILE W/M/sigma and digest pins");
      ("--min-reps", Arg.Set_int min_reps, "N least reps of each kind (default 3)");
      ("--spans-out", Arg.Set_string spans_out, "FILE traced runs: write spans here");
      ("--emit-pins", Arg.Set emit_pins, " print pin lines for one rep and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  if !pins_path = "" then (prerr_endline usage; exit 2);
  (* the doall CLI's GC setting, so the program is measured as run *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Doall_quorum.Register.install ();
  let ledger =
    {
      pins = load_pins !pins_path;
      reference = Hashtbl.create 1024;
      attempted = 0;
      failed = 0;
      errors = [];
    }
  in
  if !emit_pins then begin
    let r = run_rep ledger w ~seed:!seed ~traced:false in
    List.iter
      (fun o ->
        match o.result with
        | Ok m when w.coverage_gate ->
          let w', m', s' = triple m in
          Printf.printf "cell %s %d %d %d\n" (Runner.spec_name o.spec) w' m' s'
        | _ -> ())
      r.outcomes;
    Printf.printf "digest %s %d %s\n" w.name !seed r.hex;
    exit (if ledger.failed = 0 then 0 else 1)
  end;
  let traced = !trace = 1 in
  Printf.printf "perfbench workload=%s seed=%d trace=%d\n%!" w.name !seed !trace;
  let plain, tr =
    run_reps ledger w ~seed:!seed ~seconds:!seconds ~min_reps:(max 1 !min_reps) ~traced
  in
  (match plain with
   | first :: _ ->
     List.iter
       (fun o ->
         match o.result with
         | Ok m when w.coverage_gate ->
           Printf.printf "cell %s %s\n" (Runner.spec_name o.spec) (pp_triple (triple m))
         | _ -> ())
       first.outcomes;
     Printf.printf "digest %s\n" first.hex
   | [] -> ());
  let walls reps = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall_s) reps) in
  Printf.printf "rep wall_s untraced: %s\nrep wall_s traced: %s\n" (walls plain) (walls tr);
  let e2e = end_to_end plain in
  let wall_plain = median (List.map (fun r -> r.wall_s) plain) in
  let metrics =
    if not traced then e2e
    else begin
      let layers = median_metrics (List.map rep_layers tr) in
      let cell_ms =
        List.concat_map
          (fun r ->
            List.map
              (fun o -> (o.lookup_s +. o.create_s +. o.run_s +. o.check_s) *. 1e3)
              r.outcomes)
          tr
      in
      let wall_tr = median (List.map (fun r -> r.wall_s) tr) in
      let j1, _ = grid_pass ledger w ~seed:!seed ~jobs:1 in
      let j2, cells_j2 = grid_pass ledger w ~seed:!seed ~jobs:2 in
      let coverage = median (List.map (fun r -> covered_s r /. r.wall_s) tr) in
      let setup_tr = median (List.map setup_of tr) in
      let init_s = median (List.map (fun r -> r.init_s) tr) in
      Printf.printf
        "wall untraced %.4f s, traced %.4f s; layer coverage %.1f%%; run_grid \
         jobs 1 %.4f s, jobs 2 %.4f s\n"
        wall_plain wall_tr (100. *. coverage) j1 j2;
      if w.coverage_gate && coverage < 0.9 then
        fail ledger
          (Printf.sprintf "timed layers cover %.1f%% of wall, below 90%%"
             (100. *. coverage));
      if w.name = "headline-maxdelay" then begin
        Printf.printf "algo.init_s / setup_s = %.4f / %.4f\n" init_s setup_tr;
        if init_s < 0.5 *. setup_tr then
          fail ledger "algo.init_s is not most of setup_s on headline-maxdelay"
      end;
      layers
      @ [
          flt "runner.cell_ms.p50" "ms" (percentile 0.5 cell_ms);
          flt "runner.cell_ms.p98" "ms" (percentile 0.98 cell_ms);
          flt "pool.speedup_j2" "ratio" (j1 /. j2);
          flt "pool.busy_frac" "fraction" (cells_j2 /. (2. *. j2));
          flt "trace.overhead_pct" "%" (100. *. ((wall_tr /. wall_plain) -. 1.));
        ]
    end
  in
  if traced then List.iter print_metric e2e;
  List.iter print_metric metrics;
  Printf.printf "metric %-26s %s fraction\n" "failed_frac"
    (json_value (F (float ledger.failed /. float (max 1 ledger.attempted))));
  List.iter (fun e -> Printf.printf "FAILED %s\n" e) (List.rev ledger.errors);
  if traced && !spans_out <> "" then write_spans !spans_out tr;
  print_result ledger metrics;
  exit (if ledger.failed = 0 then 0 else 1)
