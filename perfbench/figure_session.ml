(* figure-session: one user, closed loop.  Each iteration boots a
   session with a write-ahead log, replays the paper's F4-F12
   bug-fixing session gesture for gesture (the 20 gestures of Demo.run)
   with a repaint after each, then cuts the log at a seeded record
   boundary and recovers.  The only workload where event dispatch,
   frame layout and draw, the tool scripts (rc -> 9P -> srv), cbr
   [uses] and the WAL do the work a person waits on. *)

let name = "figure-session"

(* The latency the traced run reports its overhead on. *)
let key = "gesture_ms_p50"
let checkpoint_every = 6
let gestures_per_session = 20

(* A boot or a recovery takes some 14 ms: before one, wait up to this
   long for the host to read at full speed (see timing.ml). *)
let settle_ns = 10_000_000

type kind = Point | Exec

(* Needles that depend only on the corpus, located once at set-up as
   Demo.run locates them, so the timed gestures do no benchmark-side file
   reads. *)
type addrs = { strlen : string; errs : string; init : string; write : string }

type t = {
  rng : Random.State.t;
  addrs : addrs;
  traced : bool;
  mutable reference : string option;  (* first session's final screen *)
  boot : Timing.samples;
  gesture : Timing.samples;
  recover : Timing.samples;
  (* traced run only *)
  point : Timing.samples;
  exec : Timing.samples;
  draw : Timing.samples;
  recover_boot : Timing.samples;
  decode : Timing.samples;
  mutable replay_ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  counts : (string, int) Hashtbl.t;  (* counter deltas summed over sessions *)
  mutable events : int;
}

let value name = Option.value ~default:0 (Trace.find_value name)

let rpc_count () =
  List.fold_left
    (fun acc (k, v) ->
      if k = "nine.rpc.failed" || k = "nine.rpc.timeout" then acc else acc + v)
    0 (Trace.find_prefix "nine.rpc.")

(* The counters this workload attributes; read inside a session, after
   its boot reset the registry. *)
let counters () =
  ("nine.rpc", rpc_count ())
  :: List.map
       (fun n -> (n, value n))
       [ "help.draw.draws"; "help.draw.full"; "help.layout.hit";
         "help.layout.miss"; "rc.runs"; "wal.bytes"; "wal.chunks.new";
         "wal.chunks.shared" ]

let add_deltas t before after =
  List.iter2
    (fun (n, a) (_, b) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.counts n) in
      Hashtbl.replace t.counts n (cur + b - a))
    before after

let count t n = Option.value ~default:0 (Hashtbl.find_opt t.counts n)
let problem t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 5 then t.problems <- msg :: t.problems

let locate () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let addr file needle =
    Printf.sprintf "%s:%d" file
      (Corpus.line_of ns (Corpus.src_dir ^ "/" ^ file) needle)
  in
  {
    strlen = addr "text.c" "strlen((char*)s)";
    errs = addr "exec.c" "errs((uchar*)n)";
    init = addr "help.c" "n = \"a test string\"";
    write = addr "exec.c" "n = 0;";
  }

(* The raw-event tap Session installs for its log, plus a count: the
   traced run needs events per gesture and Help keeps one hook. *)
let count_events t s =
  Help.on_event s.Session.help (fun ev ->
      t.events <- t.events + 1;
      if not s.Session.in_op then
        match !(s.Session.wal) with
        | Some a when Wal.recording a -> Wal.log a (Wal.O_event ev)
        | _ -> ())

(* The paper's session, as Demo.run performs it.  [gesture] runs one
   gesture and its repaint; window lookups happen between gestures. *)
let replay s a ~gesture =
  let src = Corpus.src_dir in
  let win = Session.win s in
  let mail = win "/help/mail/stf" in
  gesture Exec (fun () -> Session.exec_word s mail "headers");
  let headers = win Corpus.mbox_path in
  gesture Point (fun () -> Session.point_at s headers "2 sean");
  let mail = win "/help/mail/stf" in
  gesture Exec (fun () -> Session.exec_word s mail "messages");
  let message = win "From" in
  gesture Point (fun () -> Session.point_at s message "176153" ~off:2);
  let db = win "/help/db/stf" in
  gesture Exec (fun () -> Session.exec_word s db "stack");
  let stack = Session.last_window s in
  gesture Point (fun () -> Session.drag_window s stack ~col:0 ~y:1);
  let edit = win "/help/edit/stf" in
  gesture Point (fun () -> Session.point_at s stack a.strlen);
  gesture Exec (fun () -> Session.exec_word s edit "Open");
  let text = win (src ^ "/text.c") in
  gesture Exec (fun () -> Session.exec_tag_word s text "Close!");
  gesture Point (fun () -> Session.point_at s stack a.errs);
  gesture Exec (fun () -> Session.exec_word s edit "Open");
  let exec_c = win (src ^ "/exec.c") in
  gesture Point (fun () -> Session.point_at s exec_c "(uchar*)n)" ~off:8);
  let cbr = win "/help/cbr/stf" in
  gesture Exec (fun () -> Session.exec_sweep s cbr "uses *.c");
  let uses = Session.last_window s in
  gesture Point (fun () -> Session.point_at s uses a.init);
  gesture Exec (fun () -> Session.exec_word s edit "Open");
  gesture Point (fun () -> Session.point_at s uses a.write);
  gesture Exec (fun () -> Session.exec_word s edit "Open");
  gesture Exec (fun () -> Session.sweep_and_chord_cut s exec_c Demo.offending_line);
  gesture Exec (fun () -> Session.exec_tag_word s exec_c "Put!");
  gesture Exec (fun () -> Session.exec_word s cbr "mk")

(* The gestures after which Demo.run snaps a figure (F5-F12); it snaps
   F4 right after boot. *)
let figure_gestures = [ 1; 3; 6; 8; 11; 13; 17; 20 ]

(* The traced run's plain boot, timed as recovery's first step, then
   the script again with a connectivity scan at each of Demo.run's nine
   figure snaps.  A scan reads the trace clock without logging, so it
   cannot run in the logged session: recovery would see the clock
   diverge from the records' stamps. *)
let conn_pass t =
  let p =
    Timing.op ~settle_ns (fun () ->
        let p, b =
          Timing.measure (fun () ->
              Spans.with_span "session.plain_boot" (fun () -> Session.boot ()))
        in
        Timing.add t.recover_boot (float_of_int b);
        p)
  in
  let cache = Metrics.create_conn_cache () in
  let hit0 = value "metrics.conn.hit" and miss0 = value "metrics.conn.miss" in
  let scan () = ignore (Metrics.connectivity ~cache p.Session.help) in
  let n = ref 0 in
  scan ();
  replay p t.addrs ~gesture:(fun _ f ->
      f ();
      ignore (Session.screen p);
      incr n;
      if List.mem !n figure_gestures then scan ());
  let bump n d = Hashtbl.replace t.counts n (count t n + d) in
  bump "metrics.conn.hit" (value "metrics.conn.hit" - hit0);
  bump "metrics.conn.miss" (value "metrics.conn.miss" - miss0)

let session t =
  let store = Wal.create_store () in
  let s =
    Timing.op ~settle_ns (fun () ->
        let s, boot_ns =
          Timing.measure (fun () ->
              Spans.with_span "session.boot" (fun () ->
                  Session.boot ~wal:store ~checkpoint_every ()))
        in
        Timing.add t.boot (float_of_int boot_ns);
        s)
  in
  if t.traced then count_events t s;
  let before = counters () in
  let execs0 = (Metrics.total s.Session.metrics).Metrics.execs in
  (* the crash lands after a seeded gesture's repaint *)
  let cut_after = 1 + Random.State.int t.rng gestures_per_session in
  let n = ref 0 and cut = ref 0 and expected = ref "" and final = ref "" in
  let gesture kind f =
    incr n;
    t.attempted <- t.attempted + 1;
    let span = match kind with Point -> "core.point" | Exec -> "core.exec" in
    (* each of the script's gestures is a kind of its own *)
    let nth = !n in
    let scr =
      Timing.op (fun () ->
          let t0 = Timing.now_ns () in
          Spans.with_span span f;
          let t1 = Timing.now_ns () in
          let scr = Spans.with_span "frame.draw" (fun () -> Session.screen s) in
          let t2 = Timing.now_ns () in
          Timing.add ~kind:nth t.gesture (float_of_int (t2 - t0));
          if t.traced then begin
            Timing.add ~kind:nth (if kind = Point then t.point else t.exec)
              (float_of_int (t1 - t0));
            Timing.add ~kind:nth t.draw (float_of_int (t2 - t1))
          end;
          scr)
    in
    if !n = cut_after then begin
      cut := Wal.log_pos store;
      expected := Screen.dump scr
    end;
    if !n = gestures_per_session then final := Screen.dump scr
  in
  (try replay s t.addrs ~gesture
   with e -> problem t ("gesture " ^ string_of_int !n ^ ": " ^ Printexc.to_string e));
  add_deltas t before (counters ());
  Hashtbl.replace t.counts "execs"
    (count t "execs" + (Metrics.total s.Session.metrics).Metrics.execs - execs0);
  (match t.reference with
  | None -> t.reference <- Some !final
  | Some r ->
      if r <> !final then problem t "final screen differs from the first session's");
  (* crash at the seeded boundary and recover *)
  t.attempted <- t.attempted + 1;
  let crashed = Spans.with_span "wal.truncate" (fun () -> Wal.truncate_log store !cut) in
  if t.traced then begin
    conn_pass t;
    let pos =
      match Wal.latest_snapshot crashed with Some sn -> Wal.sn_log_pos sn | None -> 0
    in
    let ops, _ =
      Timing.op (fun () ->
          let r, d =
            Timing.measure (fun () ->
                Spans.with_span "wal.decode" (fun () -> Wal.ops_after crashed ~pos))
          in
          Timing.add t.decode (float_of_int d);
          r)
    in
    t.replay_ops <- t.replay_ops + List.length ops
  end;
  match
    Timing.op ~settle_ns (fun () ->
        let r, ns =
          Timing.measure (fun () ->
              Spans.with_span "wal.recover" (fun () ->
                  Session.recover ~checkpoint_every crashed))
        in
        Timing.add t.recover (float_of_int ns);
        r)
  with
  | r ->
      if Screen.dump (Session.screen r) <> !expected then
        problem t (Printf.sprintf "recovered screen differs (cut after gesture %d)" cut_after)
  | exception e -> problem t ("recover: " ^ Printexc.to_string e)

let create ~seed ~traced =
  let fresh () = Timing.samples () in
  {
    rng = Random.State.make [| seed; 0xf16 |];
    addrs = locate ();
    traced;
    reference = None;
    boot = fresh (); gesture = fresh (); recover = fresh (); point = fresh ();
    exec = fresh (); draw = fresh (); recover_boot = fresh (); decode = fresh ();
    replay_ops = 0; attempted = 0; failed = 0; problems = [];
    counts = Hashtbl.create 16; events = 0;
  }

(* A warm-up session: process-global caches survive Session.boot, and
   a process's first session (or its first after other workloads ran)
   pays for filling them.  Its outputs are checked like any other; its
   timings and counts go to a throwaway copy. *)
let setup t =
  let fresh () = Timing.samples () in
  let w =
    {
      t with
      boot = fresh (); gesture = fresh (); recover = fresh (); point = fresh ();
      exec = fresh (); draw = fresh (); recover_boot = fresh (); decode = fresh ();
      counts = Hashtbl.create 16;
    }
  in
  session w;
  if t.reference = None then t.reference <- w.reference;
  t.attempted <- w.attempted;
  t.failed <- w.failed;
  t.problems <- w.problems

let enough t =
  Timing.count t.gesture >= Timing.needed 99.
  && Timing.count t.boot >= Timing.needed 50.

let step = session

(* The second live-heap reading of a visit comes after this many
   sessions. *)
let heap_steps = 2

let ms = 1e6

let e2e t =
  [
    Report.pct "boot_ms_p50" "ms" ~scale:ms ~what:"boots" t.boot 50.;
    Report.pct "gesture_ms_p50" "ms" ~scale:ms ~what:"gestures" t.gesture 50.;
    Report.tail "gesture_ms_p99" "ms" ~scale:ms ~what:"gestures" t.gesture 99.;
    Report.pct "recover_ms_p50" "ms" ~scale:ms ~what:"recoveries" t.recover 50.;
  ]

let layers t =
  let g = Timing.count t.gesture in
  let per name n = Report.per name "1/gesture" ~num:(float_of_int n) ~den:g ~what:"gestures" in
  let ratio name a b what = Report.ratio name ~num:(count t a) ~den:(count t a + count t b) ~what in
  [
    per "core.events_per_gesture" t.events;
    per "core.execs_per_gesture" (count t "execs");
    Report.pct "core.point_ms_p50" "ms" ~scale:ms ~what:"point gestures" t.point 50.;
    Report.pct "core.exec_ms_p50" "ms" ~scale:ms ~what:"exec gestures" t.exec 50.;
    Report.pct "frame.draw_ms_p50" "ms" ~scale:ms ~what:"repaints" t.draw 50.;
    Report.ratio "frame.full_draw_share" ~num:(count t "help.draw.full")
      ~den:(count t "help.draw.draws") ~what:"draws";
    ratio "frame.layout_hit_ratio" "help.layout.hit" "help.layout.miss" "layouts";
    per "shell.rc_runs_per_gesture" (count t "rc.runs");
    per "nine.rpcs_per_gesture" (count t "nine.rpc");
    ratio "metrics.conn_hit_ratio" "metrics.conn.hit" "metrics.conn.miss" "window scans";
    Report.per "wal.bytes_per_gesture" "B/gesture"
      ~num:(float_of_int (count t "wal.bytes")) ~den:g ~what:"gestures";
    ratio "wal.chunk_share_ratio" "wal.chunks.shared" "wal.chunks.new" "chunks";
    Report.pct "wal.recover_boot_ms" "ms" ~scale:ms ~what:"plain boots" t.recover_boot 50.;
    Report.pct "wal.decode_ms" "ms" ~scale:ms ~what:"log tails" t.decode 50.;
    Report.per "wal.replay_ops" "ops" ~num:(float_of_int t.replay_ops)
      ~den:(Timing.count t.decode) ~what:"recoveries";
  ]

let finish _ = ()
let attempted t = t.attempted
let failed t = t.failed
let problems t = List.rev t.problems
