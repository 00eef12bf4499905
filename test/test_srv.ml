(* /mnt/help: the interface seen by programs, exercised through the
   shell (so every access crosses the 9P layer, as on Plan 9). *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let fresh () =
  let ns = Vfs.create () in
  let sh = Rc.create ns in
  Coreutils.install sh;
  Vfs.mkdir_p ns "/src";
  Vfs.write_file ns "/src/f.txt" "line one\nline two\n";
  let help = Help.create ~w:80 ~h:24 ns sh in
  let srv = Help_srv.mount help in
  (ns, sh, help, srv)

let sh_out sh src =
  let r = Rc.run sh src in
  Alcotest.(check string) ("stderr of " ^ src) "" r.Rc.r_err;
  r.Rc.r_out

let tests =
  [
    Alcotest.test_case "new/ctl creates a window and returns its number" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let id = String.trim (sh_out sh "cat /mnt/help/new/ctl") in
        check_bool "window exists" true
          (Help.window_by_id help (int_of_string id) <> None));
    Alcotest.test_case "index lists windows with tag first lines" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~name:"/some/file" () in
        let index = sh_out sh "cat /mnt/help/index" in
        check_bool "row present" true
          (contains index (Printf.sprintf "%d\t/some/file" (Hwin.id w))));
    Alcotest.test_case "body read matches the window" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"hello from body\n" () in
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/body" (Hwin.id w)) in
        check_str "body" "hello from body\n" out);
    Alcotest.test_case "cp body to a file (the paper's example)" `Quick (fun () ->
        let ns, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"copy me\n" () in
        let _ = Rc.run sh (Printf.sprintf "cp /mnt/help/%d/body /tmp.out" (Hwin.id w)) in
        check_str "copied" "copy me\n" (Vfs.read_file ns "/tmp.out"));
    Alcotest.test_case "grep pattern body (the paper's example)" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"alpha\nbeta\ngamma\n" () in
        let out = sh_out sh (Printf.sprintf "grep ta /mnt/help/%d/body" (Hwin.id w)) in
        check_str "hit" "beta\n" out);
    Alcotest.test_case "body write replaces" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"old content\n" () in
        let _ = Rc.run sh (Printf.sprintf "echo new > /mnt/help/%d/body" (Hwin.id w)) in
        check_str "replaced" "new\n" (Htext.string (Hwin.body w)));
    Alcotest.test_case "bodyapp appends" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"start\n" () in
        let _ = Rc.run sh (Printf.sprintf "echo more >> /mnt/help/%d/bodyapp" (Hwin.id w)) in
        let _ = Rc.run sh (Printf.sprintf "echo again > /mnt/help/%d/bodyapp" (Hwin.id w)) in
        check_str "appended twice" "start\nmore\nagain\n" (Htext.string (Hwin.body w)));
    Alcotest.test_case "tag read and ctl tag write" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let _ =
          Rc.run sh (Printf.sprintf "echo tag /my/name' Close!' > /mnt/help/%d/ctl" (Hwin.id w))
        in
        check_str "tag set" "/my/name Close!" (Hwin.tag_text w);
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/tag" (Hwin.id w)) in
        check_str "tag read" "/my/name Close!" out);
    Alcotest.test_case "ctl select and read back status" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"0123456789" () in
        let _ = Rc.run sh (Printf.sprintf "echo select 2 5 > /mnt/help/%d/ctl" (Hwin.id w)) in
        Alcotest.(check (pair int int)) "selection" (2, 5) (Htext.sel (Hwin.body w));
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/ctl" (Hwin.id w)) in
        check_bool "status line has id, len, sel" true
          (contains out (Printf.sprintf "%d 10 0 2 5" (Hwin.id w))));
    Alcotest.test_case "ctl close removes the window" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let id = Hwin.id w in
        let _ = Rc.run sh (Printf.sprintf "echo close > /mnt/help/%d/ctl" id) in
        check_bool "gone" true (Help.window_by_id help id = None));
    Alcotest.test_case "missing window is Enonexist over the wire" `Quick (fun () ->
        let _, sh, _, _ = fresh () in
        let r = Rc.run sh "cat /mnt/help/999/body" in
        check_bool "fails" true (r.Rc.r_status <> 0));
    Alcotest.test_case "a full script drives windows (decl-shaped)" `Quick (fun () ->
        let ns, sh, help, _ = fresh () in
        Vfs.write_file ns "/bin/mkwin"
          "x=`{cat /mnt/help/new/ctl}\n\
           echo tag /made/by/script' Close!' > /mnt/help/$x/ctl\n\
           echo the script wrote this > /mnt/help/$x/bodyapp\n";
        let r = Rc.run sh "mkwin" in
        check_int "status" 0 r.Rc.r_status;
        match Help.window_by_name help "/made/by/script" with
        | Some w ->
            check_bool "body" true
              (contains (Htext.string (Hwin.body w)) "the script wrote this")
        | None -> Alcotest.fail "window not created");
    Alcotest.test_case "help/parse exposes the selection context" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w =
          match Help.open_file help ~dir:"/" "/src/f.txt" with
          | Some w -> w
          | None -> Alcotest.fail "open"
        in
        Htext.set_sel (Hwin.body w) 5 5;
        Rc.set_global sh "helpsel" [ string_of_int (Hwin.id w); "5"; "5" ];
        let out = sh_out sh "help/parse -c -n" in
        check_bool "file" true (contains out "file='/src/f.txt'");
        check_bool "dir" true (contains out "dir='/src'");
        check_bool "ident under cursor" true (contains out "id='one'");
        check_bool "line" true (contains out "line='1'");
        (* eval the output as rc assignments *)
        let r = Rc.run sh (Printf.sprintf "eval `{help/parse -c}; echo $file $line") in
        check_str "evaled" "/src/f.txt 1\n" r.Rc.r_out);
    Alcotest.test_case "server statistics show protocol traffic" `Quick (fun () ->
        let _, sh, help, srv = fresh () in
        let w = Help.new_window help ~body:"x" () in
        let _ = Rc.run sh (Printf.sprintf "cat /mnt/help/%d/body" (Hwin.id w)) in
        let stats = Nine.Server.stats (Nine.Pool.server srv) in
        check_bool "walk+open+read counted" true
          (List.mem_assoc "walk" stats && List.mem_assoc "open" stats
          && List.mem_assoc "read" stats));
    Alcotest.test_case "window removal via fs remove" `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help () in
        Vfs.remove ns (Printf.sprintf "/mnt/help/%d" (Hwin.id w));
        check_bool "closed" true (Help.window_by_id help (Hwin.id w) = None));
    Alcotest.test_case "index reflects closes immediately" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~name:"/transient" () in
        let before = sh_out sh "cat /mnt/help/index" in
        check_bool "present" true (contains before "/transient");
        Help.close_window help w;
        let after = sh_out sh "cat /mnt/help/index" in
        check_bool "absent" false (contains after "/transient"));
    Alcotest.test_case "ls of /mnt/help lists numbered dirs and new" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let out = sh_out sh "ls /mnt/help" in
        check_bool "index" true (contains out "index");
        check_bool "new" true (contains out "new");
        check_bool "the window dir" true
          (contains out (string_of_int (Hwin.id w))));
    Alcotest.test_case "ls of a window dir lists the four files" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let out = sh_out sh (Printf.sprintf "ls /mnt/help/%d" (Hwin.id w)) in
        List.iter
          (fun f -> check_bool f true (contains out f))
          [ "tag"; "body"; "bodyapp"; "ctl" ]);
    Alcotest.test_case "several ctl commands in one write" `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help ~body:"0123456789" () in
        Vfs.write_file ns
          (Printf.sprintf "/mnt/help/%d/ctl" (Hwin.id w))
          "select 1 4\ntag /multi Close!\nshow 0\n";
        Alcotest.(check (pair int int)) "selection" (1, 4) (Htext.sel (Hwin.body w));
        check_str "tag" "/multi Close!" (Hwin.tag_text w));
    Alcotest.test_case "a bad ctl command errors without killing the write"
      `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help () in
        check_bool "error surfaces" true
          (match
             Vfs.write_file ns
               (Printf.sprintf "/mnt/help/%d/ctl" (Hwin.id w))
               "frobnicate now\n"
           with
          | exception Vfs.Error _ -> true
          | () -> false));
    Alcotest.test_case "shell pipeline reads a window and filters it" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w =
          Help.new_window help ~body:"alpha 1\nbeta 2\nalpha 3\n" ()
        in
        let out =
          sh_out sh
            (Printf.sprintf "cat /mnt/help/%d/body | grep alpha | wc -l"
               (Hwin.id w))
        in
        check_bool "two lines" true (contains (String.trim out) "2"));
  ]

(* The /mnt/help contract, name by name.  Every listed name and every
   name reached only by a direct walk is stat'ed through the 9P mount
   and read back; directory reads must equal the stats of the children
   they list; bad names and writes must fail with the right error. *)
type want =
  | Dir of int  (* a directory with this stat length *)
  | Text  (* stat length = the bytes an immediate open reads *)
  | Live  (* a rendering of the very traffic that reads it: nonzero *)
  | Zero  (* stat length 0: moving, or write-only *)

let contract_tests =
  let setup () =
    let ns = Vfs.create () in
    let sh = Rc.create ns in
    let help = Help.create ~w:80 ~h:24 ns sh in
    let wal = Wal.attach ~recording:false (Wal.create_store ()) in
    let srv = Help_srv.mount ~wal:(fun () -> Some wal) help in
    let w =
      Help.new_window help ~name:"/some/file" ~body:"alpha\nbeta\n" ()
    in
    (ns, help, srv, string_of_int (Hwin.id w))
  in
  let stat_key (st : Vfs.stat) = (st.st_name, st.st_dir, st.st_length) in
  let error_name = function
    | Vfs.Eio m -> "Eio " ^ m
    | e -> Vfs.error_message e
  in
  let fails what want f =
    match f () with
    | exception Vfs.Error e -> check_str what (error_name want) (error_name e)
    | _ -> Alcotest.fail (what ^ ": succeeded")
  in
  [
    Alcotest.test_case "every name: stat, read and directory read" `Quick
      (fun () ->
        let ns, _, srv, n = setup () in
        (* a client that keeps the server's listing order *)
        let client =
          Nine.Client.filesystem
            (Nine.Client.connect (Nine.Pool.transport (Nine.Pool.attach srv)))
        in
        Vfs.write_file ns ("/mnt/help/" ^ n ^ "/ctl") "select 1 3\n";
        let rid =
          match List.rev (Trace.requests ()) with
          | r :: _ -> string_of_int r
          | [] -> Alcotest.fail "no sampled request"
        in
        let table =
          [
            ("", Dir 0);
            ("index", Text);
            ("index/stats", Text);
            ("index/postings", Zero);
            ("index/rebuild", Zero);
            ("stats", Live);
            ("metrics", Live);
            ("alerts", Live);
            ("trace/" ^ rid, Zero);
            ("trace/last", Zero);
            ("trace", Zero);
            ("guide", Text);
            ("guide/help", Text);
            ("new", Dir 1);
            ("wal", Dir 2);
            ("wal/stats", Text);
            ("wal/checkpoint", Zero);
            (n, Dir 4);
            (n ^ "/tag", Text);
            (n ^ "/body", Text);
            (n ^ "/bodyapp", Zero);
            (n ^ "/ctl", Zero);
            ("new/ctl", Zero);
          ]
        in
        let wanted = Hashtbl.create 32 in
        List.iter
          (fun (name, want) ->
            Hashtbl.replace wanted name want;
            let path = "/mnt/help/" ^ name in
            let st = Vfs.stat ns path in
            (match want with
            | Dir len ->
                check_bool (name ^ " is a directory") true st.st_dir;
                check_int (name ^ " length") len st.st_length
            | Text ->
                check_bool (name ^ " is a file") false st.st_dir;
                check_int (name ^ " length = bytes read")
                  (String.length (Vfs.read_file ns path))
                  st.st_length
            | Live ->
                check_bool (name ^ " is a file") false st.st_dir;
                check_bool (name ^ " has a length") true (st.st_length > 0);
                check_bool (name ^ " reads") true (Vfs.read_file ns path <> "")
            | Zero ->
                check_bool (name ^ " is a file") false st.st_dir;
                check_int (name ^ " length") 0 st.st_length;
                ignore (Vfs.read_file ns path)))
          table;
        (* directory reads, in the server's order, against the stats of
           the children they list *)
        List.iter
          (fun dir ->
            let path = if dir = "" then [] else [ dir ] in
            let listed = client.Vfs.fs_readdir path in
            List.iter
              (fun (st : Vfs.stat) ->
                let child = String.concat "/" (path @ [ st.st_name ]) in
                (* new/ctl made the only window the table does not name *)
                check_bool (child ^ " is in the table") true
                  (Hashtbl.mem wanted child
                  || int_of_string_opt child <> None);
                let own = client.Vfs.fs_stat (path @ [ st.st_name ]) in
                match Hashtbl.find_opt wanted child with
                | Some Live ->
                    check_bool (child ^ " listed like its stat") true
                      (st.st_name = own.st_name && st.st_dir = own.st_dir
                     && st.st_length > 0)
                | _ ->
                    Alcotest.(check (triple string bool int))
                      (child ^ " listed as its stat") (stat_key own)
                      (stat_key st))
              listed;
            if dir <> "" then
              check_int (dir ^ " length = entries listed")
                (Vfs.stat ns ("/mnt/help/" ^ dir)).st_length
                (List.length listed))
          [ ""; "new"; "wal"; n ]);
    Alcotest.test_case "bad names and writes fail with the right error"
      `Quick (fun () ->
        let ns, help, _, n = setup () in
        let raw = Help_srv.filesystem help in
        List.iter
          (fun name ->
            fails ("stat " ^ name) Vfs.Enonexist (fun () ->
                Vfs.stat ns ("/mnt/help/" ^ name)))
          [ "nosuch"; "999"; "999/body"; n ^ "/nosuch"; n ^ "/tag/x";
            "index/nosuch"; "trace/abc"; "trace/99999"; "guide/nosuch";
            "new/x"; "wal/x"; "a/b/c" ];
        List.iter
          (fun name ->
            fails ("write " ^ name) Vfs.Eperm (fun () ->
                Vfs.write_file ns ("/mnt/help/" ^ name) "x"))
          [ "index"; "stats"; "guide"; "trace/last"; "nosuch"; "new/ctl" ];
        List.iter
          (fun name ->
            fails ("remove " ^ name) Vfs.Eperm (fun () ->
                Vfs.remove ns ("/mnt/help/" ^ name)))
          [ "index"; "new"; n ^ "/body" ];
        fails "mkdir" Vfs.Eperm (fun () -> Vfs.mkdir ns "/mnt/help/d");
        (* the server's own answers, beneath the protocol *)
        List.iter
          (fun path ->
            fails ("open " ^ String.concat "/" path) Vfs.Eisdir (fun () ->
                raw.Vfs.fs_open path Vfs.Read ~trunc:false))
          [ []; [ "new" ]; [ n ] ];
        List.iter
          (fun path ->
            fails ("readdir " ^ String.concat "/" path) Vfs.Enotdir (fun () ->
                raw.Vfs.fs_readdir path))
          [ [ "index" ]; [ "stats" ]; [ "trace" ]; [ "new"; "ctl" ];
            [ n; "tag" ]; [ n; "ctl" ] ]);
  ]

let () =
  Alcotest.run "srv" [ ("mnt-help", tests); ("contract", contract_tests) ]
