(** The engine's message fabric, abstracted over two backends:

    - {b point-to-point} ({!Network}) — the paper's model (§2.1): a
      fully connected network of reliable channels, each message
      individually delayed by the adversary;
    - {b shared channel} ({!Channel}) — a multiple-access broadcast
      medium beyond the model: one transmission slot per time unit,
      simultaneous transmissions collide (see docs/MODEL.md).

    The dispatch is a plain variant, not a record of closures: the
    engine builds the backend itself ([Ptp (Network.create ...)] or
    [Shared (Channel.create ...)]) and matches once per call site, the
    point-to-point path compiles to the same code it was before the
    abstraction existed (the golden grid and BENCH_4 gates pin this),
    and backend-specific operations fail loudly ([Invalid_argument])
    instead of silently doing the wrong thing on the other backend. *)

type 'msg t =
  | Ptp of 'msg Network.t
  | Shared of 'msg Channel.t

(** {1 Common operations} — defined on both backends *)

val receive_iter : 'msg t -> dst:int -> now:int -> (int -> 'msg -> unit) -> int
(** Deliver every message owed to [dst] due at or before [now], oldest
    first; returns the logical delivery count. *)

val pending : 'msg t -> int
(** Messages/deliveries owed but not yet received (O(1) on both
    backends). *)

val sent : 'msg t -> int
(** The run's message complexity [M] — point-to-point counts every
    point-to-point message (a multicast is [p - 1], Definition 2.2);
    the shared channel counts one unit per logical message in a
    transmission attempt (a broadcast is 1 — the medium is shared). *)

val silence : 'msg t -> pid:int -> unit
(** A crash notification: on a shared channel, drop [pid]'s queued
    transmit frames ({!Channel.silence}); no-op on point-to-point,
    where in-flight messages outlive their sender (§2.1). *)

val stream_stats : 'msg t -> (int * int) option
(** [Some] {!Network.stream_stats} on point-to-point; [None] on a
    channel. *)

(** {1 Point-to-point operations} — [Invalid_argument] on a channel *)

val send : 'msg t -> src:int -> dst:int -> due:int -> 'msg -> unit
val broadcast : 'msg t -> src:int -> due:int -> 'msg -> unit
val send_replica : 'msg t -> src:int -> dst:int -> due:int -> 'msg -> unit
val count_lost : 'msg t -> unit
val deactivate : 'msg t -> pid:int -> unit

(** {1 Shared-channel operations} — [Invalid_argument] on point-to-point *)

val transmit :
  'msg t ->
  src:int ->
  release:int ->
  ?bcast:'msg ->
  unis:(int * 'msg) list ->
  unit ->
  unit

val resolve :
  'msg t -> now:int -> ?arbitrate:(int array -> int array option) -> unit ->
  Channel.slot
