(** In-memory spans for the traced run: name, start, end and parent,
    recorded around the benchmark's own calls into each layer (never
    inside the program).  A span's layer is its name up to the first
    dot ([nine.encode] belongs to [nine]). *)

(** Recording is off until enabled; {!with_span} then costs one branch. *)
val set_enabled : bool -> unit

(** Label the spans that follow with the workload phase running them. *)
val set_phase : string -> unit

(** [with_span name f] runs [f] inside a span (also when it raises). *)
val with_span : string -> (unit -> 'a) -> 'a

(** Self time per (phase, layer): [(phase, layer, calls, self_ns)], where
    a span's self time is its duration minus its direct children's. *)
val self_by_layer : unit -> (string * string * int * int) list

(** Per (phase, span name): [(phase, name, calls, total_ns, self_ns)]. *)
val by_name : unit -> (string * string * int * int * int) list

(** Spans closed after the stored-span cap was reached (they still count
    in the self-time tables). *)
val dropped : unit -> int

(** Write the stored spans as tab-separated
    [id parent phase name start_ns stop_ns] lines, oldest first. *)
val write : string -> unit
