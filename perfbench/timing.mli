(** Wall-clock timing for the benchmark.  All times come from the
    monotonic clock of [bechamel.monotonic_clock]; nothing here reads
    [Sys.time] or the program's own trace clock. *)

(** Monotonic clock reading in nanoseconds. *)
val now_ns : unit -> int

(** [measure f] runs [f] and returns its result with the nanoseconds it
    took. *)
val measure : (unit -> 'a) -> 'a * int

(** {1 Host probes}

    A fixed integer kernel, timed between measurements, reads how fast
    the host runs the process at that moment. *)

(** [op f] runs [f] as one measured operation: a probe before it and
    one after it, and the samples added while [f] runs belong to the
    operation, which reads the slower of the two probes.  With
    [~settle_ns] the first probe repeats until a reading is at most
    {!probe_limit} or that many nanoseconds have gone by.  [f] must not
    call [op]. *)
val op : ?settle_ns:int -> (unit -> 'a) -> 'a

(** The slowest reading, in nanoseconds, that still counts as the host
    at full speed: 1.25 times the tenth fastest probe taken so far. *)
val probe_limit : unit -> int

val probes_taken : unit -> int

(** Probes at or under {!probe_limit}. *)
val probes_quiet : unit -> int

(** A growable list of observations, each tagged with the operation
    it was taken in and a kind. *)
type samples

val samples : unit -> samples

(** [add ~kind s v]; kinds (default 0) let {!balanced_percentile} keep
    every kind's share when the quiet samples hold more of one kind
    than another. *)
val add : ?kind:int -> samples -> float -> unit

val count : samples -> int
val sum : samples -> float
val mean : samples -> float

(** [under limit s] is a copy of [s] holding the samples whose
    operation reads at most [limit] nanoseconds, and those taken outside
    any operation. *)
val under : int -> samples -> samples

(** [limit_for ~need s] is {!probe_limit}, raised when it must be until
    at least one sample of every kind and [need] samples in all (when
    [s] has that many in closed operations) fall under it. *)
val limit_for : need:int -> samples -> int

(** [needed p] is the smallest sample count {!percentile} accepts for
    [p]: 20 for p50, 1000 for p99. *)
val needed : float -> int

(** [percentile s p] is the nearest-rank [p]th percentile of [s], or
    [Error] when fewer than 10 samples lie beyond it (or [p] is outside
    [0, 100)). *)
val percentile : samples -> float -> (float, string) result

(** [balanced_percentile ~all sel p] is the [p]th percentile of [sel]
    (samples taken from [all]) with each sample weighted by its kind's
    count in [all] over its count in [sel], so every kind keeps its
    share of [all]; nearest rank on the cumulative weight.  Refused as
    {!percentile} refuses [sel]. *)
val balanced_percentile : all:samples -> samples -> float -> (float, string) result
