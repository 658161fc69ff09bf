(** Wiring: named algorithms x named adversaries x (p, t, d) -> metrics.

    The registries give the CLI, the examples, the tests and the
    benchmark harness one shared vocabulary. Adversary constructors are
    invoked per run because the lower-bound adversaries are stateful.

    {1 Thread-safety contract}

    {!run_grid} fans runs across a {!Doall_sim.Pool} of domains, so
    everything a single run touches must be per-run state:

    - [adv_spec.instantiate] is called once {e per run, from the worker
      domain that executes the run}, and must return an adversary whose
      mutable state is fresh and unshared (stateless adversaries such as
      [Adversary.fair] may be returned shared). All built-in adversaries
      satisfy this; so must registered ones.
    - [algo_spec.make] is likewise called once per run from the worker
      domain and must return a packed module whose [init] builds
      per-processor state only from the run's [Config]. Internal memo
      tables (e.g. the DA(q) searched-list cache) must be guarded — see
      [lib/core/algo_da.ml].
    - {!register_algorithm} is safe to call from any domain, but
      registration racing a live grid would let some runs of that grid
      see the algorithm and others not; register at startup, before
      launching grids (the CLI and the bench harness do).

    Each run builds its own [Config] and derives every [Rng] stream from
    the run's seed, so results are bit-identical for any [?jobs],
    including [1] — pinned by [test/test_pool.ml]. *)

open Doall_sim

type algo_spec = {
  algo_name : string;
  doc : string;
  make : unit -> Algorithm.packed;
  deterministic : bool;
      (** true when the algorithm draws no coins (DA, PaDet, trivial) *)
  liveness : [ `Any_survivor | `Needs_quorum ];
      (** [`Any_survivor]: terminates whenever at least one processor
          keeps taking steps (the paper's standard condition).
          [`Needs_quorum]: additionally requires a quorum of processors
          to keep taking steps (e.g. {!Doall_quorum.Algo_awq}); under
          quorum-killing adversaries such runs honestly fail to
          complete. *)
}

type adv_spec = {
  adv_name : string;
  adv_doc : string;
  instantiate : p:int -> t:int -> d:int -> Adversary.t;
}

val algorithms : algo_spec list
(** The built-ins: trivial, paran1, paran2, padet, da-q2 .. da-q8. *)

val register_algorithm : algo_spec -> unit
(** Add (or replace) an externally provided algorithm; built-in names are
    protected ([Invalid_argument]). Used by [Doall_quorum.Register]. *)

val all_algorithms : unit -> algo_spec list
(** Built-ins plus everything registered so far. *)

val adversaries : adv_spec list
(** fair, max-delay, uniform-delay, batch, solo, round-robin,
    harmonic, random-half, laggard, lb-det, lb-rand, lb-rand-random,
    crash-half, crash-all-but-one, crash-staggered — plus the
    beyond-the-model chaos adversaries of docs/FAULTS.md: lossy-half,
    lossy-all, dup-storm, flaky-restart, chaos. Every chaos adversary
    keeps pid 0 permanently alive, so all registry algorithms terminate
    under them (pinned by [test/test_faults.ml], including at 100%
    message loss). The shared-channel contention adversaries
    chan-ordered, chan-ordered-high, chan-rotor, chan-delayed and
    chan-delayed-ordered ({!Doall_adversary.Chan}) are also registered;
    their contention rules only bite on a channel transport — on
    point-to-point they degenerate to [fair]. *)

val find_algo : string -> algo_spec
(** Raises [Failure] with a message listing known names. *)

val find_adv : string -> adv_spec
(** Registry lookup, plus one dynamic family: a name of the form
    ["strategy:<spec>"] compiles the {!Doall_adversary.Strategy} DSL
    spec into an adversary on the spot — {!run} and {!run_grid} (and
    through them the CLI's [--adv], the experiment contexts and their
    memo caches) accepts synthesized strategies transparently. Raises
    [Failure] on unknown names and unparsable specs. *)

type run_spec = {
  spec_algo : string;
  spec_adv : string;
  p : int;
  t : int;
  d : int;
  seed : int;
  transport : Config.transport;
      (** which network backend the cell runs on; [Config.Ptp] is the
          paper's reliable point-to-point model, the channel variants
          are the shared-medium extension of docs/MODEL.md *)
}
(** One cell of an experiment grid, by registry name. *)

type result = {
  metrics : Metrics.t;
      (** [completed = false] when the run hit its time cap: the
          metrics are then the partial ones (work, messages, executions
          and per-processor work so far; [sigma] is the cap time) *)
  spec : run_spec;  (** the cell that ran *)
  wall_s : float;
      (** wall-clock of the simulation itself (engine run only, not
          registry lookup or adversary construction) — the per-cell
          timing column of exported grid results. Machine-dependent:
          excluded from all determinism comparisons. *)
  obs : Probe.snapshot option;
      (** final snapshot of the run's fresh probe when run with
          [~probes:true]; [None] otherwise. *)
  spans : Span.snapshot option;
      (** final self-profiler snapshot when the run was profiled
          ([~profile:true]): per-phase wall-clock totals and enter
          counts for the engine's [deliver] / [algo_step] / [adversary]
          / [bcast_maint] / [oracle] sections (docs/OBSERVABILITY.md).
          Totals are machine-dependent like [wall_s]; counts are
          deterministic. [None] when not profiled. *)
  trace : Trace.t option;
      (** the run's event trace, [Some] exactly when run with
          [~trace:true] *)
}

val sim_count : unit -> int
(** Process-wide number of engine runs started through {!run} (directly
    or from {!run_grid}, any domain). Deltas of this counter let tests assert
    that memoized experiment cells simulate exactly once. *)

val spec :
  ?seed:int ->
  ?transport:Config.transport ->
  algo:string ->
  adv:string ->
  p:int ->
  t:int ->
  d:int ->
  unit ->
  run_spec
(** [seed] defaults to [0], [transport] to [Config.Ptp]. *)

val run :
  ?max_time:int ->
  ?probes:bool ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  ?trace:bool ->
  run_spec ->
  result
(** One simulation, in the calling domain. Never raises on the time cap:
    a capped run comes back with [metrics.completed = false] and the
    partial metrics — under a reliable network that would be an
    algorithm bug, under injected faults it can be honest behaviour;
    the caller decides. [?max_time] defaults to
    {!Doall_sim.Engine.default_max_time}. Raises [Failure] on unknown
    names and unparsable [strategy:] specs (see {!find_adv}).

    [~probes:true] attaches a fresh enabled {!Probe.t} and stores its
    final snapshot in [result.obs]. [~profile:true] attaches a fresh
    {!Span.t} self-profiler and stores its snapshot in [result.spans].
    [~check:true] turns on the invariant oracle ({!Doall_sim.Oracle})
    for the whole run; a violation raises
    {!Doall_sim.Oracle.Invariant_violation}. [?faults] overlays a message-fault policy on the
    named adversary (the CLI's [--faults]); channel runs reject it
    ([Invalid_argument], see {!Doall_sim.Engine}), as does [d < 1].
    [~trace:true] attaches a fresh {!Trace.t} and stores it, filled, in
    [result.trace].
    None of these changes the metrics: all default to off. *)

(** {1 Parallel grids} *)

exception Grid_incomplete of run_spec list
(** Raised by {!run_grid} when runs hit the [max_time] cap without
    completing: the full list of capped cells, never a silent partial
    result. A printable form is installed via
    [Printexc.register_printer]. *)

val spec_name : run_spec -> string
(** ["algo/adv/pP/tT/dD/seedS"], for tables and error messages.
    Non-point-to-point cells get an ["@transport"] suffix; [Ptp] cells
    keep the historical unsuffixed form, so pre-transport golden pins
    stay byte-identical. *)

val pp_spec : Format.formatter -> run_spec -> unit
(** Readable ["algo/adv/p=…/t=…/d=…/seed=…"] rendering; what the
    registered {!Grid_incomplete} exception printer lists capped cells
    with (one per line, truncated past 12 cells). *)

val grid :
  ?seeds:int list ->
  ?transport:Config.transport ->
  algos:string list ->
  advs:string list ->
  points:(int * int * int) list ->
  unit ->
  run_spec list
(** Cross product [algos x advs x (p, t, d) points x seeds] (seeds
    default [[0]]), in row-major order: the order {!run_grid} returns
    results in. All cells share the [?transport] (default [Ptp]). *)

val run_grid :
  ?jobs:int ->
  ?pool:Pool.t ->
  ?max_time:int ->
  ?probes:bool ->
  ?profile:bool ->
  ?check:bool ->
  ?faults:Adversary.faults ->
  ?on_cell:(finished:int -> total:int -> result -> unit) ->
  run_spec list ->
  result list
(** {!run} on every cell, results in submission order. [?pool] reuses
    an existing pool; otherwise a transient pool of [?jobs] domains
    (default [Pool.default_jobs ()]) is created for the call. The other
    optionals apply to every cell as in {!run}; each cell gets its own
    probe and profiler, never shared across domains. Results (metrics,
    probe snapshots, span counts) are byte-identical for every
    [jobs >= 1] because all per-run state ([Config], [Rng] streams,
    algorithm instances, adversary state) is built inside the run — see
    the thread-safety contract above. Raises {!Grid_incomplete} if any
    run hit [max_time].

    [?on_cell] is a progress callback invoked once per finished cell,
    {e in completion order}, with the number of cells finished so far
    and the grid total; invocations are serialized by an internal
    mutex but may come from any worker domain, so the callback must
    not touch domain-local state. The CLI and the bench harness use it
    to render live [k/n cells, ETA] lines on stderr. *)
