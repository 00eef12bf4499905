let err e = raise (Vfs.Error e)

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let index_text help =
  String.concat ""
    (List.map
       (fun w ->
         Printf.sprintf "%d\t%s\n" (Hwin.id w)
           (first_line (Hwin.tag_text w)))
       (Help.windows help))

(* What a path names.  [filesystem] decides it once, in [node]; stat,
   open, readdir and remove only interpret the answer. *)
type node =
  | Dir of int * (unit -> string list)  (* stat length, listed names *)
  | Win of Hwin.t  (* a window's directory, listing [win_files] *)
  | Text of (unit -> string)  (* rendered at stat for its length *)
  | Moving of (unit -> string)  (* length 0: rendered only at open *)
  | Request of int * string  (* a sampled request and its span tree *)
  | Trigger of (string -> unit)  (* length 0, reads empty; writes act *)
  | Tag of Hwin.t
  | Body of Hwin.t
  | Ctl of Hwin.t

let win_files = [ "tag"; "body"; "bodyapp"; "ctl" ]

(* [off]/[count] reads of a fixed string *)
let slice s ~off ~count =
  let len = String.length s in
  if off >= len then "" else String.sub s off (min count (len - off))

let openfile ?(close = ignore) ~write read =
  { Vfs.of_read = read; of_write = write; of_close = close }

let string_file s =
  openfile (fun ~off ~count -> slice s ~off ~count) ~write:(fun ~off:_ _ ->
      err Vfs.Eperm)

(* reads of a live subwindow take the range, never the whole rope *)
let text_file t ~write =
  openfile (fun ~off ~count -> Htext.read t off (off + count)) ~write

let status w =
  let q0, q1 = Htext.sel (Hwin.body w) in
  Printf.sprintf "%d %d %d %d %d\n" (Hwin.id w)
    (Htext.length (Hwin.body w))
    (if Hwin.dirty w then 1 else 0)
    q0 q1

let found = function Some x -> x | None -> err Vfs.Enonexist

let spans (s, dropped) = Trace.spans_text ~dropped s

let rec last = function [] -> "/" | [ c ] -> c | _ :: p -> last p

let filesystem ?(wal = fun () -> None) help =
  let ns = Help.ns help in
  (* the session attaches its WAL after the mount, so the tree reads
     the cell on every access: wal/ appears once an attachment exists *)
  let the_wal () = found (wal ()) in
  let win id = found (Help.window_by_id help (found (int_of_string_opt id))) in
  (* the fixed nodes are built once, so a lookup allocates nothing *)
  let root =
    Dir
      ( 0,
        fun () ->
          [ "index"; "stats"; "metrics"; "alerts"; "trace"; "guide"; "new" ]
          @ (if Option.is_none (wal ()) then [] else [ "wal" ])
          @ List.map (fun w -> string_of_int (Hwin.id w)) (Help.windows help)
      )
  in
  let index = Text (fun () -> index_text help) in
  (* the observability ledger through the paper's own interface: the
     registry one metric per line, its Prometheus-style exposition
     with per-window quantiles, and the threshold table *)
  let stats = Text Trace.stats_text in
  let metrics = Text Trace.metrics_text in
  let alerts = Text Trace.alerts_text in
  (* reading trace drains the span ring; trace/last renders the same
     without the drain, so any number of observers may peek *)
  let trace = Moving (fun () -> spans (Trace.drain ())) in
  let trace_last = Moving (fun () -> spans (Trace.peek ())) in
  (* the manual's index: one name/section/title line per page *)
  let guide = Text Guide.index_text in
  let new_dir = Dir (1, fun () -> [ "ctl" ]) in
  (* "To create a new window, a process just opens /mnt/help/new/ctl
     ... and may then read from that file the name of the window
     created."  The window exists as soon as the file is open. *)
  let new_ctl =
    Moving (fun () -> string_of_int (Hwin.id (Help.new_window help ())) ^ "\n")
  in
  let ix_stats = Text (fun () -> Index.stats_text (Index.of_ns ns)) in
  (* the posting table moves under queries *)
  let ix_postings = Moving (fun () -> Index.postings_text (Index.of_ns ns)) in
  let ix_rebuild = Trigger (fun _ -> Index.rebuild (Index.of_ns ns)) in
  let wal_dir = Dir (2, fun () -> [ "stats"; "checkpoint" ]) in
  (* index, trace and guide are files with children reached only by a
     direct walk: they are not listed *)
  let node = function
    | [] -> root
    | [ "index" ] -> index
    | [ "index"; "stats" ] -> ix_stats
    | [ "index"; "postings" ] -> ix_postings
    | [ "index"; "rebuild" ] -> ix_rebuild
    | [ "stats" ] -> stats
    | [ "metrics" ] -> metrics
    | [ "alerts" ] -> alerts
    | [ "trace" ] -> trace
    | [ "trace"; "last" ] -> trace_last
    | [ "trace"; r ] ->
        let r = found (int_of_string_opt r) in
        Request (r, found (Trace.request_text r))
    | [ "guide" ] -> guide
    | [ "guide"; pg ] ->
        let p = found (Guide.find pg) in
        Text (fun () -> Guide.page_text p)
    | [ "new" ] -> new_dir
    | [ "new"; "ctl" ] -> new_ctl
    | [ "wal" ] ->
        ignore (the_wal ());
        wal_dir
    (* the durability ledger, and any write snapshots now *)
    | [ "wal"; "stats" ] ->
        let a = the_wal () in
        Text (fun () -> Wal.stats_text a)
    | [ "wal"; "checkpoint" ] ->
        let a = the_wal () in
        Trigger (fun _ -> Wal.force_checkpoint a)
    | [ id ] -> Win (win id)
    | [ id; "tag" ] -> Tag (win id)
    | [ id; "body" ] -> Body (win id)
    | [ id; "bodyapp" ] -> Trigger (Help.append_body help (win id))
    | [ id; "ctl" ] -> Ctl (win id)
    | _ -> err Vfs.Enonexist
  in
  let fs_stat path =
    let n = node path in
    let st_length =
      match n with
      | Dir (len, _) -> len
      | Win _ -> List.length win_files
      | Text render -> String.length (render ())
      | Tag w -> Htext.length (Hwin.tag w)
      | Body w -> Htext.length (Hwin.body w)
      | Moving _ | Request _ | Trigger _ | Ctl _ -> 0
    in
    {
      (* numerals are named canonically: a walk to 06 reaches window 6 *)
      Vfs.st_name =
        (match n with
        | Win w -> string_of_int (Hwin.id w)
        | Request (r, _) -> string_of_int r
        | _ -> last path);
      st_dir = (match n with Dir _ | Win _ -> true | _ -> false);
      st_length;
      st_mtime = Vfs.now ns;
      st_version = 0;
    }
  in
  let fs_readdir path =
    let names =
      match node path with
      | Dir (_, names) -> names ()
      | Win _ -> win_files
      | _ -> err Vfs.Enotdir
    in
    List.map (fun name -> fs_stat (path @ [ name ])) names
  in
  (* writes accumulate; complete lines are executed as they arrive, and
     a failing line leaves the pending text in place *)
  let ctl_file w =
    let pending = Buffer.create 64 in
    let run line =
      match Help.ctl_command help w line with
      | Ok () -> ()
      | Error msg -> err (Vfs.Eio msg)
    in
    let run_lines final =
      let data = Buffer.contents pending in
      let rec go start =
        match String.index_from_opt data start '\n' with
        | Some i ->
            run (String.sub data start (i - start));
            go (i + 1)
        | None ->
            let rest = String.sub data start (String.length data - start) in
            if final && rest <> "" then run rest;
            Buffer.clear pending;
            if not final then Buffer.add_string pending rest
      in
      go 0
    in
    openfile
      (fun ~off ~count -> slice (status w) ~off ~count)
      ~write:(fun ~off:_ data ->
        Buffer.add_string pending data;
        run_lines false;
        String.length data)
      ~close:(fun () -> run_lines true)
  in
  let fs_open path _mode ~trunc =
    match node path with
    | Dir _ | Win _ -> err Vfs.Eisdir
    | Text render | Moving render -> string_file (render ())
    | Request (_, text) -> string_file text
    | Trigger act ->
        openfile
          (fun ~off:_ ~count:_ -> "")
          ~write:(fun ~off:_ data ->
            act data;
            String.length data)
    | Tag w ->
        if trunc then Hwin.set_tag w "";
        text_file (Hwin.tag w) ~write:(fun ~off data ->
            (* writes build up the tag at the given offset *)
            let cur = Hwin.tag_text w in
            let len = String.length cur in
            let b = Bytes.make (max len (off + String.length data)) ' ' in
            Bytes.blit_string cur 0 b 0 len;
            Bytes.blit_string data 0 b off (String.length data);
            Hwin.set_tag w (Bytes.to_string b);
            String.length data)
    | Body w ->
        if trunc then Help.set_body help w "";
        text_file (Hwin.body w) ~write:(fun ~off data ->
            let buf = Htext.buffer (Hwin.body w) in
            let was_dirty = Buffer0.dirty buf in
            let len = Buffer0.length buf in
            if off >= len then Buffer0.insert buf len data
            else Buffer0.replace buf off (min len (off + String.length data)) data;
            Buffer0.commit buf;
            (* program-written content is not an unsaved user edit *)
            if not was_dirty then Buffer0.clean buf;
            String.length data)
    | Ctl w -> ctl_file w
  in
  let fs_create _path ~dir:_ = err Vfs.Eperm in
  let fs_remove path =
    match node path with
    | Win w -> Help.close_window help w
    | _ -> err Vfs.Eperm
  in
  { Vfs.fs_stat; fs_open; fs_create; fs_remove; fs_readdir }

(* ------------------------------------------------------------------ *)
(* Glue natives: help/parse and help/buf                               *)

let line_of_offset text q =
  let q = max 0 (min q (String.length text)) in
  let line = ref 1 in
  for i = 0 to q - 1 do
    if text.[i] = '\n' then incr line
  done;
  !line

let quote v = "'" ^ String.concat "''" (String.split_on_char '\'' v) ^ "'"

let parse_native proc args =
  let flags = List.tl args in
  let out = Rc.proc_out proc in
  match Rc.proc_get proc "helpsel" with
  | Some [ id; q0; q1 ] -> (
      let ns = Rc.proc_ns proc in
      let win_dir = "/mnt/help/" ^ id in
      match Vfs.read_file ns (win_dir ^ "/tag") with
      | exception Vfs.Error _ ->
          Buffer.add_string (Rc.proc_err proc) "help/parse: no such window\n";
          1
      | tag_line ->
          let q0 = int_of_string_opt q0 |> Option.value ~default:0 in
          let q1 = int_of_string_opt q1 |> Option.value ~default:q0 in
          let name =
            match String.index_opt tag_line ' ' with
            | Some i -> String.sub tag_line 0 i
            | None -> (
                match String.index_opt tag_line '\t' with
                | Some i -> String.sub tag_line 0 i
                | None -> tag_line)
          in
          let dir =
            if name = "" then "/"
            else if name.[String.length name - 1] = '/' then Vfs.normalize name
            else Vfs.dirname name
          in
          let add k v = Buffer.add_string out (k ^ "=" ^ quote v ^ "\n") in
          add "win" id;
          add "file" name;
          add "dir" dir;
          let body () = Vfs.read_file ns (win_dir ^ "/body") in
          List.iter
            (fun flag ->
              match flag with
              | "-c" ->
                  let text = body () in
                  let a, b = Hselect.ident_at text q0 in
                  let a, b = if b > a then (a, b) else Hselect.ident_at text q1 in
                  add "id" (String.sub text a (b - a));
                  add "line" (string_of_int (line_of_offset text q0))
              | "-w" ->
                  let text = body () in
                  let a, b = Hselect.word_at text q0 in
                  add "id" (String.sub text a (b - a))
              | "-n" ->
                  let text = body () in
                  (match Hselect.number_at text q0 with
                  | Some num -> add "num" num
                  | None -> add "num" "0")
              | "-l" ->
                  let text = body () in
                  let a, b = Hselect.line_at text q0 in
                  add "text" (String.sub text a (b - a))
              | _ -> ())
            flags;
          0)
  | _ ->
      Buffer.add_string (Rc.proc_err proc) "help/parse: no selection\n";
      1

let buf_native proc _args =
  Buffer.add_string (Rc.proc_out proc) (Rc.proc_stdin proc);
  0

let install_glue sh =
  Rc.register sh "/bin/help/parse" parse_native;
  Rc.register sh "/bin/help/buf" buf_native

let mount ?wrap ?max_retries ?wal help =
  let pool =
    Nine.serve_mount ?wrap ?max_retries ~uname:"help" (Help.ns help)
      "/mnt/help" (filesystem ?wal help)
  in
  install_glue (Help.shell help);
  pool
