(* clients-rw: 32 clients, closed loop, against one booted session's
   /mnt/help.  Each client is an in-process Nine.Pool connection on
   this one OS thread, the seat Session.attach_client uses; the
   program's own cooperative scheduler multiplexes them.  A client
   opens its own window through new/ctl, then loops a seeded mix of
   about three reads per write, one file operation in flight at a time
   (its RPCs pipelined, as a 9P client may).  Wire, sched, server and
   srv do almost all the work: nothing is drawn and no rc runs.

   A visit boots the session, connects the clients and opens their
   windows; each step is a round of 16 operations per client on the
   same window; the visit ends with the windows removed and the
   clients disconnected.  Whatever the rounds leave behind (a body's
   undo journal keeps every text it replaced) shows in the live heap
   the run reads after a fixed number of rounds. *)

let name = "clients-rw"

(* The latency the traced run reports its overhead on. *)
let key = "rpc_us_p50"

let clients = 32
(* Short rounds: a round is the unit the host probes judge (see
   timing.ml), and a short one is more often run at full speed from
   end to end. *)
let ops_per_round = 16
let body_size = 256

type client = {
  idx : int;
  conn : Nine.Pool.conn;
  rng : Random.State.t;
  mutable win : int;
  mutable body : string;  (* what this client last wrote to its body *)
  mutable writes : int;
  mutable ops_left : int;
}

(* One visit's session and its connected clients. *)
type world = {
  session : Session.t;
  pool : Nine.Pool.t;
  boot_win : int;
  boot_body : string;
  fid_baseline : int;
  clients : client array;
}

type t = {
  mutable world : world option;
  rng : Random.State.t;
  traced : bool;
  rpc : Timing.samples;
  write : Timing.samples;
  mutable rpcs : int;
  round_ns : Timing.samples;  (* wall time of each round *)
  round_rpcs : Timing.samples;  (* RPCs settled in each round *)
  mutable rounds : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  (* traced run only *)
  encode : Timing.samples;
  decode : Timing.samples;
  step : Timing.samples;
  depth : Timing.samples;
  mutable bytes : int;  (* T- and R-message bytes *)
  mutable step_rpcs : int;  (* requests served inside timed steps *)
  counts : (string, int) Hashtbl.t;
  srv_read : Timing.samples;
  srv_write : Timing.samples;
  srv_walk : Timing.samples;
  mutable pending_spans : int;  (* span ring depth after the last round *)
}

let world t =
  match t.world with Some w -> w | None -> invalid_arg "clients-rw: no world set up"

let problem t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 5 then t.problems <- msg :: t.problems

let value n = Option.value ~default:0 (Trace.find_value n)

(* One RPC: the T-message and a check on its reply. *)
type rpc = Nine.tmsg * (Nine.rmsg -> bool)

let is_ok = function Nine.Rerror _ -> false | _ -> true
let read_is f = function Nine.Rread { data } -> f data | _ -> false
let wrote n = function Nine.Rwrite { count } -> count = n | _ -> false

let read_file names check : rpc list =
  [
    (Nine.Twalk { fid = 0; newfid = 1; names }, is_ok);
    (Nine.Topen { fid = 1; mode = Nine.Oread }, is_ok);
    (Nine.Tread { fid = 1; offset = 0; count = 8192 }, read_is check);
    (Nine.Tclunk { fid = 1 }, is_ok);
  ]

let body_text c =
  let head = Printf.sprintf "client %02d write %08d\n" c.idx c.writes in
  head ^ String.make (body_size - String.length head - 1) (Char.chr (97 + (c.idx mod 26))) ^ "\n"

(* A seeded file operation: about three reads per write.  [on_done]
   runs once every reply of the operation has been checked. *)
let next_op t c : rpc list * (unit -> unit) =
  let world = world t in
  let w = string_of_int c.win in
  match Random.State.int c.rng 8 with
  | 0 -> (read_file [ "index" ] (fun d -> Hstr.contains d ~sub:("\n" ^ w ^ "\t")), ignore)
  | 1 -> (read_file [ string_of_int world.boot_win; "body" ] (String.equal world.boot_body), ignore)
  | 2 -> (read_file [ w; "body" ] (String.equal c.body), ignore)
  | 3 ->
      let prefix = Printf.sprintf "%s %d " w (String.length c.body) in
      (read_file [ w; "ctl" ] (String.starts_with ~prefix), ignore)
  | 4 -> (read_file [ w; "tag" ] (fun _ -> true), ignore)
  | 5 ->
      let len = String.length c.body in
      ( [
          (Nine.Twalk { fid = 0; newfid = 1; names = [ w; "body" ] }, is_ok);
          ( Nine.Tstat { fid = 1 },
            function Nine.Rstat { stat } -> stat.Nine.s9_length = len | _ -> false );
          (Nine.Tclunk { fid = 1 }, is_ok);
        ],
        ignore )
  | 6 ->
      c.writes <- c.writes + 1;
      let text = body_text c in
      ( [
          (Nine.Twalk { fid = 0; newfid = 1; names = [ w; "body" ] }, is_ok);
          (Nine.Topen { fid = 1; mode = Nine.Otrunc Nine.Owrite }, is_ok);
          (Nine.Twrite { fid = 1; offset = 0; data = text }, wrote body_size);
          (Nine.Tclunk { fid = 1 }, is_ok);
        ],
        fun () -> c.body <- text )
  | _ ->
      let word = Printf.sprintf "x%dy" c.writes in
      let ins = Printf.sprintf "insert 0 %s\n" word in
      let del = Printf.sprintf "delete 0 %d\n" (String.length word) in
      ( [
          (Nine.Twalk { fid = 0; newfid = 1; names = [ w; "ctl" ] }, is_ok);
          (Nine.Topen { fid = 1; mode = Nine.Owrite }, is_ok);
          (Nine.Twrite { fid = 1; offset = 0; data = ins }, wrote (String.length ins));
          (Nine.Twrite { fid = 1; offset = 0; data = del }, wrote (String.length del));
          (Nine.Tclunk { fid = 1 }, is_ok);
        ],
        ignore )

let encode t tag m =
  if not t.traced then Nine.encode_t ~tag m
  else begin
    let s, ns = Timing.measure (fun () -> Spans.with_span "nine.encode" (fun () -> Nine.encode_t ~tag m)) in
    Timing.add t.encode (float_of_int ns);
    t.bytes <- t.bytes + String.length s;
    s
  end

let decode t r =
  if not t.traced then Nine.decode_r r
  else begin
    let m, ns = Timing.measure (fun () -> Spans.with_span "nine.decode" (fun () -> Nine.decode_r r)) in
    Timing.add t.decode (float_of_int ns);
    t.bytes <- t.bytes + String.length r;
    m
  end

(* Submit one operation's RPCs back to back; when the last reply has
   settled, [k] runs (the closed loop's next step). *)
let submit_op t c (rpcs : rpc list) ~on_done ~k =
  let left = ref (List.length rpcs) in
  List.iteri
    (fun i (m, check) ->
      let packet = encode t (i + 1) m in
      let is_write = match m with Nine.Twrite _ -> true | _ -> false in
      t.attempted <- t.attempted + 1;
      let t0 = Timing.now_ns () in
      let ticket = Nine.Pool.submit c.conn packet in
      Nine.Pool.on_settled c.conn ticket (fun o ->
          let dt = float_of_int (Timing.now_ns () - t0) in
          Timing.add t.rpc dt;
          if is_write then Timing.add t.write dt;
          t.rpcs <- t.rpcs + 1;
          (match o with
          | Nine.Pool.Replied r ->
              let _, reply = decode t r in
              if not (check reply) then
                problem t
                  (Printf.sprintf "client %d: unexpected reply to %s" c.idx
                     (Nine.kind_of_t m))
          | Nine.Pool.Waiting | Nine.Pool.Flushed ->
              problem t (Printf.sprintf "client %d: request not served" c.idx));
          decr left;
          if !left = 0 then begin
            on_done ();
            k ()
          end))
    rpcs

let rec loop t c () =
  if c.ops_left > 0 then begin
    c.ops_left <- c.ops_left - 1;
    let rpcs, on_done = next_op t c in
    submit_op t c rpcs ~on_done ~k:(loop t c)
  end

let drive t =
  let w = world t in
  if not t.traced then Nine.Pool.run w.pool
  else
    let continue = ref true in
    while !continue do
      Timing.add t.depth (float_of_int (Nine.Pool.pending w.pool));
      let served0 = t.rpcs in
      let more, ns = Timing.measure (fun () -> Spans.with_span "sched.step" (fun () -> Nine.Pool.step w.pool)) in
      Timing.add t.step (float_of_int ns);
      t.step_rpcs <- t.step_rpcs + (t.rpcs - served0);
      continue := more
    done

let check_fids t ~expect what =
  let w = world t in
  let n = Nine.Pool.fid_count w.pool in
  if n <> expect then problem t (Printf.sprintf "fid count %d %s, expected %d" n what expect)

(* A round: every client runs its operations on its own window. *)
let round t =
  let w = world t in
  Timing.op (fun () ->
      let rpcs0 = t.rpcs in
      let t0 = Timing.now_ns () in
      Array.iter
        (fun c ->
          c.ops_left <- ops_per_round;
          loop t c ())
        w.clients;
      drive t;
      Timing.add t.round_ns (float_of_int (Timing.now_ns () - t0));
      Timing.add t.round_rpcs (float_of_int (t.rpcs - rpcs0)));
  t.rounds <- t.rounds + 1;
  (* each connection still holds its root fid *)
  check_fids t ~expect:(w.fid_baseline + clients) "after a round"

(* A copy of [t] whose timings go nowhere, for the RPCs of set-up and
   tear-down; [keep_checks] carries its outcome back. *)
let scratch t =
  let fresh () = Timing.samples () in
  {
    t with
    rpc = fresh (); write = fresh (); encode = fresh (); decode = fresh ();
    step = fresh (); depth = fresh (); rpcs = 0; round_ns = fresh (); round_rpcs = fresh ();
  }

let keep_checks t s =
  t.attempted <- s.attempted;
  t.failed <- s.failed;
  t.problems <- s.problems

(* Attach and negotiate every client, then open each one's window
   through new/ctl. *)
let connect t =
  let w = world t in
  Array.iter
    (fun c ->
      let id = ref "" in
      submit_op t c
        [
          (Nine.Tversion { msize = 65536; version = "9P2000.help" }, is_ok);
          (Nine.Tattach { fid = 0; uname = Nine.Pool.uname c.conn; aname = "" }, is_ok);
        ]
        ~on_done:ignore
        ~k:(fun () ->
          submit_op t c
            (read_file [ "new"; "ctl" ] (fun d ->
                 id := String.trim d;
                 int_of_string_opt !id <> None))
            ~on_done:(fun () -> c.win <- Option.value ~default:0 (int_of_string_opt !id))
            ~k:ignore))
    w.clients;
  drive t

let finish t =
  let w = world t in
  let s = scratch t in
  Array.iter
    (fun c ->
      submit_op s c
        [
          (Nine.Twalk { fid = 0; newfid = 1; names = [ string_of_int c.win ] }, is_ok);
          (Nine.Tremove { fid = 1 }, is_ok);
        ]
        ~on_done:ignore
        ~k:(fun () ->
          submit_op s c [ (Nine.Tclunk { fid = 0 }, is_ok) ] ~on_done:ignore ~k:ignore))
    w.clients;
  drive s;
  Array.iter (fun c -> Nine.Pool.disconnect c.conn) w.clients;
  check_fids s ~expect:w.fid_baseline "after disconnect";
  keep_checks t s;
  t.world <- None

(* The traced run's srv numbers: one client's round of file operations
   replayed straight on the /mnt/help tree, with no 9P in between.  A
   walk is the server's lookup of the path (its stat). *)
let srv_replay t =
  let world = world t in
  let fs = Help_srv.filesystem world.session.Session.help in
  let timed samples f =
    let r, ns = Timing.op (fun () -> Timing.measure (fun () -> Spans.with_span "srv.op" f)) in
    Timing.add samples (float_of_int ns);
    r
  in
  let walk path = ignore (timed t.srv_walk (fun () -> fs.Vfs.fs_stat path)) in
  let read path =
    walk path;
    timed t.srv_read (fun () ->
        let f = fs.Vfs.fs_open path Vfs.Read ~trunc:false in
        let d = f.Vfs.of_read ~off:0 ~count:8192 in
        f.Vfs.of_close ();
        d)
  in
  let write path ~trunc data =
    walk path;
    timed t.srv_write (fun () ->
        let f = fs.Vfs.fs_open path Vfs.Write ~trunc in
        List.iter (fun d -> ignore (f.Vfs.of_write ~off:0 d)) data;
        f.Vfs.of_close ())
  in
  let w = String.trim (read [ "new"; "ctl" ]) in
  let boot = string_of_int world.boot_win in
  let rng = Random.State.make [| Random.State.bits t.rng |] in
  for i = 1 to ops_per_round do
    match Random.State.int rng 8 with
    | 0 -> ignore (read [ "index" ])
    | 1 -> ignore (read [ boot; "body" ])
    | 2 -> ignore (read [ w; "body" ])
    | 3 -> ignore (read [ w; "ctl" ])
    | 4 -> ignore (read [ w; "tag" ])
    | 5 -> walk [ w; "body" ]
    | 6 -> write [ w; "body" ] ~trunc:true [ String.make body_size 's' ]
    | _ ->
        let word = Printf.sprintf "x%dy" i in
        write [ w; "ctl" ] ~trunc:false
          [ Printf.sprintf "insert 0 %s\n" word;
            Printf.sprintf "delete 0 %d\n" (String.length word) ]
  done;
  fs.Vfs.fs_remove [ w ]

let counter_names =
  [ "nine.backpressure.stalls"; "nine.trace.sampled"; "nine.trace.dropped";
    "vfs.walk"; "vfs.stat"; "vfs.open"; "vfs.read"; "vfs.write"; "vfs.create";
    "vfs.remove"; "vfs.readdir" ]

let batch = Trace.histogram "nine.batch.size"

let snapshot () =
  let n, sum, _, _ = Trace.histogram_stats batch in
  ("batch.count", n) :: ("batch.sum", sum) :: List.map (fun k -> (k, value k)) counter_names

let step t =
  let before = if t.traced then snapshot () else [] in
  round t;
  if t.traced then begin
    List.iter2
      (fun (k, a) (_, b) ->
        Hashtbl.replace t.counts k (Option.value ~default:0 (Hashtbl.find_opt t.counts k) + b - a))
      before (snapshot ());
    srv_replay t;
    t.pending_spans <- Trace.pending_spans ()
  end

let create ~seed ~traced =
  let fresh () = Timing.samples () in
  {
    world = None;
    rng = Random.State.make [| seed; 0xc1 |];
    traced;
    rpc = fresh (); write = fresh (); rpcs = 0; round_ns = fresh (); round_rpcs = fresh ();
    rounds = 0;
    attempted = 0; failed = 0; problems = [];
    encode = fresh (); decode = fresh (); step = fresh (); depth = fresh ();
    bytes = 0; step_rpcs = 0; counts = Hashtbl.create 16;
    srv_read = fresh (); srv_write = fresh (); srv_walk = fresh ();
    pending_spans = 0;
  }

(* Boot a session, connect the clients and open their windows, then
   one warm-up round.  The warm-up's outputs are checked like any
   other; its timings go to a throwaway copy. *)
let setup t =
  let session = Session.boot () in
  let pool = session.Session.pool in
  let boot_win = Hwin.id (Session.win session "help/Boot") in
  t.world <-
    Some
      {
        session;
        pool;
        boot_win;
        boot_body =
          Vfs.read_file session.Session.ns (Printf.sprintf "/mnt/help/%d/body" boot_win);
        fid_baseline = Nine.Pool.fid_count pool;
        clients =
          Array.init clients (fun idx ->
              {
                idx;
                conn = Nine.Pool.attach ~uname:(Printf.sprintf "client%02d" idx) pool;
                rng = Random.State.make [| Random.State.bits t.rng; idx |];
                win = 0; body = ""; writes = 0; ops_left = 0;
              });
      };
  let s = scratch t in
  connect s;
  round s;
  keep_checks t s

(* The second live-heap reading of a visit comes after this many
   rounds. *)
let heap_steps = 32

let enough t = Timing.count t.write >= Timing.needed 99.

let us = 1e3

(* RPCs per second over the quiet rounds, or the ten quietest (a
   round's two samples carry the same probe). *)
let rpc_rate t =
  let lim, ns, which = Report.gated ~need:10 t.round_ns in
  let rpcs = Timing.under lim t.round_rpcs in
  let n = Timing.sum rpcs and secs = Timing.sum ns /. 1e9 in
  Report.metric ~samples:(int_of_float n)
    ~base:(Printf.sprintf "%.0f RPCs in %.3f s of rounds (%s rounds), %d clients" n secs which
             clients)
    "rpc_per_s" "1/s" (n /. secs)

let e2e t =
  [
    rpc_rate t;
    Report.pct "rpc_us_p50" "us" ~scale:us ~what:"RPCs" t.rpc 50.;
    Report.tail "rpc_us_p99" "us" ~scale:us ~what:"RPCs" t.rpc 99.;
    Report.tail "write_us_p99" "us" ~scale:us ~what:"Twrite RPCs" t.write 99.;
  ]

let layers t =
  let count k = Option.value ~default:0 (Hashtbl.find_opt t.counts k) in
  let vfs_ops =
    List.fold_left (fun acc k -> if String.starts_with ~prefix:"vfs." k then acc + count k else acc) 0
      counter_names
  in
  let service = Timing.sum t.step /. float_of_int (max 1 t.step_rpcs) in
  let mean = Timing.mean t.rpc in
  [
    Report.pct "nine.encode_us" "us" ~scale:us ~what:"client encodes" t.encode 50.;
    Report.pct "nine.decode_us" "us" ~scale:us ~what:"client decodes" t.decode 50.;
    Report.per "nine.bytes_per_rpc" "B" ~num:(float_of_int t.bytes) ~den:t.rpcs ~what:"RPCs";
    Report.pct "sched.step_us" "us" ~scale:us ~what:"Pool.step turns" t.step 50.;
    Report.pct "sched.queue_depth_p50" "count" ~scale:1. ~what:"turns (Pool.pending)" t.depth 50.;
    Report.per "sched.batch_size_mean" "count" ~num:(float_of_int (count "batch.sum"))
      ~den:(count "batch.count") ~what:"batches";
    Report.metric ~samples:t.rounds "sched.stalls" "count"
      (float_of_int (count "nine.backpressure.stalls"));
    Report.metric ~samples:t.rpcs
      ~base:(Printf.sprintf "mean wait %.0f ns of mean latency %.0f ns" (mean -. service) mean)
      "sched.wait_share" "ratio"
      (if mean > 0. then (mean -. service) /. mean else 0.);
    Report.pct "srv.read_us" "us" ~scale:us ~what:"direct reads" t.srv_read 50.;
    Report.pct "srv.write_us" "us" ~scale:us ~what:"direct writes" t.srv_write 50.;
    Report.pct "srv.walk_us" "us" ~scale:us ~what:"direct walks" t.srv_walk 50.;
    Report.per "vfs.ops_per_rpc" "1/RPC" ~num:(float_of_int vfs_ops) ~den:t.rpcs ~what:"RPCs";
    Report.ratio "trace.sampled_share" ~num:(count "nine.trace.sampled")
      ~den:(count "nine.trace.sampled" + count "nine.trace.dropped") ~what:"requests";
    Report.metric "trace.pending_spans" "count" (float_of_int t.pending_spans);
  ]

let attempted t = t.attempted
let failed t = t.failed
let problems t = List.rev t.problems
