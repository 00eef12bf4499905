(** A 9P-style file protocol: binary codec, in-process server, client.

    The paper's programming interface is "the standard currency in
    Plan 9: files and file servers" — [help] {e is} a file server and its
    clients (shell scripts, tools) talk to it through the kernel's file
    protocol.  This module reproduces that layer: a binary message codec
    in the 9P2000 style and an in-process transport, so every access to a
    mounted server serializes a T-message and parses an R-message, as it
    would on the wire.

    Simplifications relative to 9P2000 (documented, deliberate): tags are
    carried but requests are synchronous; permissions are not modelled
    ([help] has a single user); [iounit] is fixed. *)

(** {1 Wire}

    Message types and the codec live in {!Wire} (zero-copy slice cursors
    on decode, reusable patching writers on encode) and are re-exported
    here, so [Nine.Tread], [Nine.encode_t] and friends name the same
    things. *)

include module type of struct
  include Wire
end

(** {1 Server} *)

module Server : sig
  (** The executor behind a {!Pool}: runs decoded T-messages against a
      connection's fid table, negotiated msize and [uname].  Every
      message also feeds the global observability ledger: the
      [nine.rpc.<kind>] counters, the [nine.rpc.us] round-trip latency
      histogram and the [nine.fids.live] gauge (see [Trace]). *)
  type t

  (** Number of requests served by {e this} server, by message kind
      (walk, open, read, ...); used by benches and [Cpu.link_stats]. *)
  val stats : t -> (string * int) list
end

(** {1 Pool}

    The only way into a {!Server}: its connections and the cooperative
    scheduler that serves them.  Requests are queued per connection
    into a bounded FIFO ring ({!Pool.submit}; a full ring applies
    backpressure, counted as [nine.backpressure.stalls]) and served in
    round-robin batches ({!Pool.step} serves up to the pool's batch
    limit of one connection's requests per turn, observed in the
    [nine.batch.size] histogram) — each turn of the ready queue serves
    at most one batch per connection, so a chatty client waits behind
    everyone else's next batch and can never starve the rest.
    Connections are served in ready order, a pure function of the
    submission schedule, and the server runs on the deterministic
    logical clock, so the same schedule replays to the same
    interleaving byte for byte.

    Each submitted request gets a request id from [Trace.request_id]
    and a head-sampling verdict ([nine.trace.sampled] /
    [nine.trace.dropped]); a sampled request's whole execution is
    recorded as a span tree tagged with its id, readable as
    [/mnt/help/trace/<reqid>]. *)

module Pool : sig
  type t

  (** One client's seat: a disjoint fid table, its own negotiated
      msize, the [uname] its client presented at attach, and a
      submission queue — fids never cross connections. *)
  type conn

  (** What became of a submitted request. *)
  type outcome =
    | Waiting  (** still queued, or unknown ticket *)
    | Replied of string  (** served; the encoded R-message *)
    | Flushed  (** cancelled by a later [Tflush] before it ran *)

  (** A fresh server for [fs] with no connections.  [max_queue] bounds
      each connection's submission ring (default 128) and [batch_limit]
      caps requests served per connection per turn (default 8). *)
  val create : ?max_queue:int -> ?batch_limit:int -> Vfs.filesystem -> t

  (** The underlying server (per-kind stats). *)
  val server : t -> Server.t

  (** Open a connection and add it at the back of the scheduler ring.
      [uname] is a provisional label for stats ("none" by default); the
      [Tattach] on this connection overwrites it with the client's own.
      Bumps [nine.conn.attached] and the [nine.conn.active] gauge. *)
  val attach : ?uname:string -> t -> conn

  (** Close the connection: its queued requests are dropped unserved,
      every open file on it is released and its fid table emptied.
      Idempotent. *)
  val disconnect : conn -> unit

  val uname : conn -> string

  (** Requests served on this connection. *)
  val served : conn -> int

  (** Queue [packet] and return a ticket for {!poll}/{!take}.  A
      [Tflush] cancels its victim here if the victim is still queued
      ([nine.flush.cancelled]; the victim's ticket becomes {!Flushed})
      and counts [nine.flush.stale] otherwise; either way the flush
      itself is queued and answered in order.  Submitting into a full
      ring turns the scheduler until space frees
      ([nine.backpressure.stalls]).
      @raise Bad_message on a malformed packet (never queued). *)
  val submit : conn -> string -> int

  (** Wire-level batching: split a buffer of concatenated T-frames in
      place (no per-frame copy) and {!submit} each; tickets in frame
      order. *)
  val feed : conn -> string -> int list

  (** Requests currently queued on this connection — never exceeds the
      pool's [max_queue]. *)
  val queue_length : conn -> int

  val poll : conn -> int -> outcome

  (** {!poll}, forgetting the ticket once it has settled. *)
  val take : conn -> int -> outcome

  (** Continuation-driven completion: run the callback from the
      scheduler's run-to-completion task queue when the ticket settles
      (immediately queued if it already has).  The outcome is consumed
      — {!poll}/{!take} will not see it. *)
  val on_settled : conn -> int -> (outcome -> unit) -> unit

  (** Requests queued across the pool. *)
  val pending : t -> int

  (** One scheduler turn: drain pending continuations, then serve up to
      [batch_limit] queued requests of the next ready connection;
      [false] when nothing is left to do. *)
  val step : t -> bool

  (** {!step} until every queue is empty. *)
  val run : t -> unit

  (** The synchronous transport a {!Client} speaks: submit, then turn
      the scheduler until this request's reply is out — other
      connections' queued work is served on the way, interleaved by the
      round-robin.
      @raise Timeout if the request was flushed before running. *)
  val transport : conn -> string -> string

  (** [(conn_id, uname, served, live fids)] per open connection, in
      attach order. *)
  val stats : t -> (int * string * int * int) list

  (** Most-served over least-served connection, among connections that
      submitted at least one request: [1.0] is perfect balance,
      [infinity] means a requester was never served. *)
  val fairness_spread : t -> float

  (** Live fids across all connections — the leak detector.  After
      every client handle is closed it must return to the count held
      right after attach (one root fid per attached connection). *)
  val fid_count : t -> int

  (** [record_journal p true] starts recording [(clock reading, conn
      id, message kind)] per dispatched request — the interleaving
      transcript used by replay tests.  The journal is a bounded ring:
      past its capacity the oldest records are dropped and counted as
      [nine.journal.dropped], so an unbounded bench run cannot grow it
      without limit.  Recording reads the clock, so it perturbs
      timings; leave it off outside tests. *)
  val record_journal : t -> bool -> unit

  (** The journal recorded so far, oldest first ([] if off). *)
  val journal : t -> (int * int * string) list

  (** Install (or clear) a durability sink that receives every
      dispatch record as it is made — before the bounded ring can evict
      anything, so a consumer that persists entries (the WAL) never
      loses one to a ring drop.  With the ring off, sink records are
      stamped with the clock's current position rather than a reading,
      so installing a sink does not perturb timestamps. *)
  val set_journal_sink : t -> (int * int * string -> unit) option -> unit
end

(** {1 Client} *)

module Client : sig
  type t

  (** [connect rpc] performs version + attach over the transport.

      Requests whose replies are lost, late, corrupt, or tagged wrong
      are retried when idempotent (version/attach/walk/stat/read/clunk)
      up to [max_retries] times with exponential backoff ([backoff_us]
      doubling per attempt) on the deterministic trace clock; each
      retry increments [nine.retry.<kind>].  A reply arriving more than
      [timeout_us] logical microseconds after such a request was sent
      counts as lost ([nine.rpc.timeout]).  A timed-out tag is not
      abandoned: a best-effort [Tflush oldtag] ([nine.flush.sent]) asks
      the server to cancel the exchange before the retry re-issues
      under a fresh tag.  Exhausted retries — and any failure of a
      non-idempotent request — raise [Vfs.Error (Eio reason)] and count
      in [nine.rpc.failed].

      [uname] (default "help") is presented at attach; multi-connection
      servers record it per connection for stats.

      @raise Bad_message if version/attach negotiation itself fails. *)
  val connect :
    ?timeout_us:int ->
    ?max_retries:int ->
    ?backoff_us:int ->
    ?uname:string ->
    (string -> string) ->
    t

  (** View the remote tree as a local {!Vfs.filesystem}: each operation
      becomes walk/open/read/write/clunk round-trips.  Reads and writes
      are chunked to fit the negotiated msize.  A directory read of a
      file fails with [Enotdir] before the file is opened. *)
  val filesystem : t -> Vfs.filesystem
end

(** [serve_mount ns path fs] wires a fresh pool serving [fs] to a
    client and mounts the client's view at [path] in [ns]: from then on
    all access to [path] crosses the protocol.  Returns the pool, so
    further clients can {!Pool.attach} to the same server — how a
    session becomes multi-tenant (see [Session.attach_client]).
    [?wrap] interposes on the transport (e.g. {!Fault.wrap}); the
    client connects {e before} the mount, so a transport that cannot
    complete version/attach raises with the namespace untouched.
    [?max_retries] sets the client's retry budget — raise it alongside
    an aggressive fault schedule.  [?uname] (default "help") labels the
    mount's own connection in per-connection stats. *)
val serve_mount :
  ?wrap:((string -> string) -> string -> string) ->
  ?max_retries:int ->
  ?uname:string ->
  Vfs.t ->
  string ->
  Vfs.filesystem ->
  Pool.t
