(** Runner-backed worst-case synthesis: {!Doall_adversary.Synth} wired
    to {!Runner.run}.

    The search asks "what is the worst delivery/crash/fault schedule for
    this algorithm at this (p, t, d)?" — the question the paper answers
    with hand-built lower-bound constructions. Candidates run under the
    invariant oracle by default, so a strategy that drives an algorithm
    into an invariant violation is surfaced (and scores as an instant
    maximum) rather than crashing the search; capped runs are recorded
    as [e_completed = false] rows, never aborting a generation. *)

open Doall_adversary

val default_max_time : p:int -> t:int -> d:int -> int
(** The per-candidate time cap: generous enough that every liveness-safe
    strategy completes at experiment scale, small enough that a
    livelocking candidate costs bounded time. *)

val evaluator :
  ?check:bool ->
  ?max_time:int ->
  ?transport:Doall_sim.Config.transport ->
  algo:string ->
  p:int ->
  t:int ->
  d:int ->
  seed:int ->
  unit ->
  Strategy.t ->
  Synth.eval
(** One candidate = one {!Runner.run} of a {!Runner.run_spec} with
    [spec_adv = "strategy:" ^ to_spec], run in the calling domain.
    [?check] (default true) audits with the oracle and reports a
    violation in [e_violation] instead of raising. [?transport] (default
    point-to-point) runs every candidate on that backend. Deterministic
    in ([algo], p, t, d, [seed]) except for the measured [e_wall]. *)

val default_space : algo:string -> Strategy.space
(** [Quorum_safe] for [`Needs_quorum] algorithms (per the registry's
    liveness declaration), [Live] otherwise. *)

val default_init : space:Strategy.space -> Strategy.t list
(** Strong hand-crafted openers seeded into generation 0 (max-delay
    laggard, full-loss, flaky churn + fault storm, ...), so the search
    starts at least as bad as the chaos registry. *)

val search :
  ?seed:int ->
  ?population:int ->
  ?elite:int ->
  ?fitness:Synth.fitness ->
  ?space:Strategy.space ->
  ?init:Strategy.t list ->
  ?check:bool ->
  ?max_time:int ->
  ?transport:Doall_sim.Config.transport ->
  ?wall_cap_s:float ->
  ?on_generation:(Synth.progress -> unit) ->
  ?pool:Doall_sim.Pool.t ->
  ?jobs:int ->
  algo:string ->
  p:int ->
  t:int ->
  d:int ->
  budget:int ->
  unit ->
  Synth.outcome
(** {!Synth.search} against [algo] with the evaluator, space and seed
    population defaulted as above. [?seed] (default 0) drives both the
    search RNG and every candidate run, so a fixed seed makes the whole
    search — including the winning spec — bit-identical across repeated
    runs and across any [?jobs]. A channel [?transport] additionally
    opens the shared-channel contention dimension to the search
    ([~chan:true] to {!Synth.search}); point-to-point searches keep
    their pre-transport RNG sequence. On a channel the default space
    downgrades [Live]/[Full] to [In_model] — the channel carries its
    own loss model and the engine rejects message-fault policies on it
    — and passing a fault space explicitly raises [Invalid_argument]. *)
