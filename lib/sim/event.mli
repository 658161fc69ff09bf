(** The engine's observation stream.

    Every observation site in {!Engine} is one branch and one emission
    of a value of {!t} to the consumers attached at
    {!Engine.Make.create}. Consumers read only what the engine emits:
    nothing else of the run is visible to them, and nothing they do
    feeds back into it, so metrics and RNG streams are bit-identical
    with any set of consumers attached (pinned by [test/test_obs.ml]).
    docs/OBSERVABILITY.md maps each event to the trace kind and probe
    names it feeds.

    {b Order.} A tick emits its restarts and crashes, then for each
    eligible pid in ascending order either [Delayed] or one step, then
    [Slot] on the shared channel, then [Tick_end]. A step is [Perform]
    or [Step] followed by the step's outbound traffic ([Latency],
    [Dropped], [Duplicated] or [Transmitted], with [Broadcast] among
    them) and [Halt] if the pid halted. [Note] can come at any point an
    adversary decides. So the traffic events between one step's
    [Perform]/[Step] and the next step, delay, slot or tick end are
    exactly that step's. *)

type t =
  | Traced of Trace.event
      (** One of the eight kinds the trace stores: a step, a withheld
          step, a task execution, a multicast, a halt, a crash, a
          restart, or an adversary's note. *)
  | Latency of { delta : int; copies : int }
      (** [copies] point-to-point message units were sent, each to be
          delivered [delta] time units later *)
  | Dropped
      (** a fault policy dropped one point-to-point message unit: sent
          and counted, never delivered *)
  | Duplicated of int
      (** a fault policy added this many replicas of one copy; replicas
          are not message units and have no latency sample *)
  | Transmitted of int
      (** a step queued a shared-channel frame of this many logical
          message units *)
  | Slot of Channel.slot  (** the shared channel resolved this tick's slot *)
  | Tick_end of {
      time : int;
      delivered : int;  (** messages received during the tick *)
      in_flight : int;  (** deliveries owed at the tick's end *)
      stream : (int * int) option;
          (** {!Network.stream_stats} on point-to-point *)
    }

val trace : Trace.t -> t -> unit
(** The trace consumer: adds [Traced] events to the trace, ignores the
    rest. *)

val probes : Probe.t -> p:int -> t -> unit
(** [probes pr ~p] registers the engine's probe catalogue in [pr]
    (instrument names as in docs/OBSERVABILITY.md; vectors of length
    [p]) and returns its consumer. A step's message units are summed
    from its traffic events into one [net.fanout] sample. Fan-out and
    latency samples are batched by runs of equal value and flushed at
    every [Tick_end], so the snapshot is complete after each tick. *)
