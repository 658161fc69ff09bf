(* See event.mli. *)

type t =
  | Traced of Trace.event
  | Latency of { delta : int; copies : int }
  | Dropped
  | Duplicated of int
  | Transmitted of int
  | Slot of Channel.slot
  | Tick_end of {
      time : int;
      delivered : int;
      in_flight : int;
      stream : (int * int) option;
    }

let trace tr = function Traced ev -> Trace.add tr ev | _ -> ()

let probes pr ~p =
  let fresh = Probe.counter pr "engine.fresh_executions" in
  let redundant = Probe.counter pr "engine.redundant_executions" in
  let sends = Probe.counter pr "net.sends" in
  let deliveries = Probe.counter pr "net.deliveries" in
  let latency = Probe.histogram pr "net.delivery_latency" in
  let fanout = Probe.histogram pr "net.fanout" in
  let in_flight = Probe.gauge pr "net.in_flight" in
  let stream_pending = Probe.gauge pr "net.stream_pending" in
  let stream_digest = Probe.gauge pr "net.stream_digest_bytes" in
  let drops = Probe.counter pr "net.drops" in
  let dups = Probe.counter pr "net.dups" in
  let collisions = Probe.counter pr "net.collisions" in
  let busy = Probe.counter pr "net.channel_busy" in
  let delayed = Probe.vector pr "proc.delayed_steps" ~len:p in
  let idle = Probe.vector pr "proc.idle_steps" ~len:p in
  let s_fresh = Probe.series pr "engine.fresh_executions" in
  let s_redundant = Probe.series pr "engine.redundant_executions" in
  let s_inflight = Probe.series pr "net.in_flight" in
  (* Per-message and per-step samples arrive in runs of equal values
     (a constant delay, a broadcast-only fan-out of p - 1), and a
     histogram update per copy or per step costs ~10% on
     broadcast-heavy runs. So both histograms are batched by run
     length in registers, flushed when the value changes and at every
     tick's end. [units] sums the message units of the step in progress
     (see the order in event.mli); the step is over when the next step,
     delay, slot or tick end arrives. *)
  let units = ref 0 and fan_v = ref (-1) and fan_n = ref 0 in
  let lat_v = ref (-1) and lat_n = ref 0 in
  let flush_fanout () =
    Probe.observe_n fanout !fan_v !fan_n;
    Probe.add sends (!fan_v * !fan_n);
    fan_n := 0
  in
  let end_step () =
    if !units > 0 then begin
      if !units = !fan_v then fan_n := !fan_n + 1
      else begin
        flush_fanout ();
        fan_v := !units;
        fan_n := 1
      end;
      units := 0
    end
  in
  let flush_latency () =
    Probe.observe_n latency !lat_v !lat_n;
    lat_n := 0
  in
  function
  | Traced (Trace.Perform { fresh = f; _ }) ->
    end_step ();
    Probe.incr (if f then fresh else redundant)
  | Traced (Trace.Step { pid; _ }) ->
    end_step ();
    Probe.vincr idle pid
  | Traced (Trace.Delayed { pid; _ }) ->
    end_step ();
    Probe.vincr delayed pid
  | Traced
      ( Trace.Broadcast _ | Trace.Halt _ | Trace.Crash _ | Trace.Restart _
      | Trace.Note _ ) ->
    ()
  | Latency { delta; copies } ->
    units := !units + copies;
    if delta = !lat_v then lat_n := !lat_n + copies
    else begin
      flush_latency ();
      lat_v := delta;
      lat_n := copies
    end
  | Dropped ->
    units := !units + 1;
    Probe.incr drops
  | Duplicated n -> Probe.add dups n
  | Transmitted n -> units := !units + n
  | Slot { Channel.slot_busy; slot_collided; _ } ->
    end_step ();
    if slot_busy then Probe.incr busy;
    if slot_collided then Probe.incr collisions
  | Tick_end { time; delivered; in_flight = queued; stream } -> (
    end_step ();
    flush_fanout ();
    flush_latency ();
    Probe.add deliveries delivered;
    (* per-tick trajectories: cumulative executions and the in-flight
       message backlog *)
    Probe.sample s_fresh ~time (Probe.counter_value fresh);
    Probe.sample s_redundant ~time (Probe.counter_value redundant);
    Probe.set in_flight queued;
    Probe.sample s_inflight ~time queued;
    (* shared-stream occupancy: retained broadcast records and bytes
       held by cached epoch digests (0 outside the digest path) *)
    match stream with
    | Some (records, digest_words) ->
      Probe.set stream_pending records;
      Probe.set stream_digest (digest_words * (Sys.word_size / 8))
    | None -> ())
