(* The trigram index: planner soundness, staleness under edits (through
   Index.grep and through the shell's grep), and the generation-counter
   contract (unchanged generation => zero re-tokenizations). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let re = Regexp.compile

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let planner_basics () =
  check_bool "a long literal is useful" true
    (Index.query_useful (Index.plan_literal "counter42"));
  check_bool "a two-byte literal is not" false
    (Index.query_useful (Index.plan_literal "ab"));
  check_bool "a bare class falls back" false
    (Index.query_useful (Index.plan (re "[a-z]+")));
  check_bool "runs across operators still contribute" true
    (Index.query_useful (Index.plan (re "line [0-9]+ of")));
  check_bool "alternation of literals is useful" true
    (Index.query_useful (Index.plan (re "alpha|bravo")));
  check_bool "alternation with a short branch falls back" false
    (Index.query_useful (Index.plan (re "alpha|ab")));
  check_bool "plus requires its body once" true
    (Index.query_useful (Index.plan (re "(abc)+")));
  check_string "query rendering"
    "(AND abc bcd)"
    (Index.query_text (Index.plan_literal "abcd"))

(* ------------------------------------------------------------------ *)
(* Files: pruning equals the linear scan, at rest and under edits      *)

let mk_tree () =
  let ns = Vfs.create () in
  Vfs.mkdir_p ns "/src";
  let files =
    List.init 6 (fun i -> Printf.sprintf "/src/f%d.txt" i)
  in
  List.iteri
    (fun i p ->
      Vfs.write_file ns p
        (Printf.sprintf "alpha %d\nbravo %d\nneedle%d here\n" i i i))
    files;
  (ns, files)

let same_results ix ns files pat =
  ignore ns;
  let r = re pat in
  Index.hits_text (Index.grep ix r files)
  = Index.hits_text (Index.grep_linear ix r files)

let files_indexed_equals_linear () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  List.iter
    (fun pat ->
      check_bool ("indexed = linear: " ^ pat) true
        (same_results ix ns files pat))
    [ "needle3"; "alpha"; "bravo [0-9]"; "nothing-anywhere"; "[a-z]+ [0-9]+" ];
  (* candidate selection actually pruned something *)
  let docs, _, posts = Index.sizes ix in
  check_int "all files tokenized" 6 docs;
  check_bool "postings exist" true (posts > 0);
  (* edit one file: the next query must see the new text *)
  Vfs.write_file ns "/src/f2.txt" "fresh needle9 text\n";
  check_bool "after edit: indexed = linear" true
    (same_results ix ns files "needle9");
  let hits = Index.grep ix (re "needle9") files in
  check_int "edited file found" 1 (List.length hits);
  (* remove a file: pruned scans and linear scans agree on the gap *)
  Vfs.remove ns "/src/f4.txt";
  check_bool "after remove: indexed = linear" true
    (same_results ix ns files "needle4")

(* Names come back as the caller wrote them, a relative one resolved
   against [cwd]; an unreadable one is kept for the scan to report. *)
let prune_resolves_names () =
  let ns = Vfs.create () in
  Vfs.mkdir_p ns "/x";
  Vfs.mkdir_p ns "/y";
  Vfs.write_file ns "/x/f.txt" "needle here\n";
  Vfs.write_file ns "/x/g.txt" "nothing\n";
  Vfs.write_file ns "/y/f.txt" "nothing\n";
  Vfs.write_file ns "/y/g.txt" "needle here\n";
  let ix = Index.of_ns ns in
  let q = Index.plan_literal "needle" in
  let names = [ "f.txt"; "./g.txt"; "/x/f.txt"; "missing.txt" ] in
  let check_names = Alcotest.(check (list string)) in
  check_names "in /x" [ "f.txt"; "/x/f.txt"; "missing.txt" ]
    (Index.prune ~cwd:"/x" ix q names);
  check_names "in /y" [ "./g.txt"; "/x/f.txt"; "missing.txt" ]
    (Index.prune ~cwd:"/y" ix q names);
  check_names "the default cwd is the root" [ "x/f.txt" ]
    (Index.prune ix q [ "x/f.txt"; "y/f.txt" ])

let generation_counters () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  ignore (Index.grep ix (re "alpha") files);
  let r0 = Index.reindexed ix in
  (* no namespace mutation between queries: nothing may re-tokenize *)
  ignore (Index.grep ix (re "bravo") files);
  ignore (Index.grep ix (re "needle2") files);
  check_int "unchanged generation => zero re-tokenizations" r0
    (Index.reindexed ix);
  (* one edit, many queries: exactly one re-tokenization *)
  Vfs.write_file ns "/src/f1.txt" "bravo rewritten\n";
  ignore (Index.grep ix (re "bravo") files);
  ignore (Index.grep ix (re "bravo") files);
  check_int "one edit => one re-tokenization" (r0 + 1) (Index.reindexed ix)

let rebuild_control () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  ignore (Index.grep ix (re "alpha") files);
  let _, _, posts = Index.sizes ix in
  Index.rebuild ix;
  let _, _, posts' = Index.sizes ix in
  check_int "rebuild drops the postings" 0 posts';
  check_bool "and the next query rebuilds them" true
    (same_results ix ns files "needle1"
    && (let _, _, p = Index.sizes ix in p = posts))

(* ------------------------------------------------------------------ *)
(* Files: the qcheck edit-script property                              *)

let patterns =
  [ "abc"; "abcd"; "bc ab"; "cab|bac"; "a[ab]c"; "zzzz"; "ab+c" ]

(* Only the first file starts with the patterns' trigrams, so edits
   that give the others new ones exercise staleness. *)
let edit_files =
  [ ("a.txt", "abc abd cab\nbac abcd\n"); ("b.txt", ""); ("c.txt", "b a c\n") ]

let edit_names = List.map fst edit_files

(* Ops: in one of the files, insert a small string drawn from a
   4-letter alphabet, or delete a range.  Positions are taken modulo
   the live length. *)
let ops_gen =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (pair int (pair int (pair int (option string)))))
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (int_range 0 2)
           (pair (int_range 0 10000)
              (pair (int_range 0 12)
                 (option
                    (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; ' ' ])
                       (int_range 1 8)))))))

let apply_op ns (file, (pos, (len, ins))) =
  let path = "/src/" ^ List.nth edit_names file in
  let s = Vfs.read_file ns path in
  let n = String.length s in
  let pos = if n = 0 then 0 else pos mod (n + 1) in
  let s =
    match ins with
    | Some ins -> String.sub s 0 pos ^ ins ^ String.sub s pos (n - pos)
    | None ->
        let len = min len (n - pos) in
        String.sub s 0 pos ^ String.sub s (pos + len) (n - pos - len)
  in
  Vfs.write_file ns path s

(* What [grep -n] prints for the same hits, names as written. *)
let as_grep hits =
  String.concat ""
    (List.map
       (fun h ->
         Printf.sprintf "%s:%d:%s\n" (Vfs.basename h.Index.h_doc)
           h.Index.h_line h.Index.h_text)
       hits)

let prop_file_edits =
  QCheck.Test.make ~name:"indexed = linear under any edit script" ~count:60
    ops_gen (fun ops ->
      let ns = Vfs.create () in
      let sh = Rc.create ns in
      Coreutils.install sh;
      Vfs.mkdir_p ns "/src";
      List.iter (fun (f, text) -> Vfs.write_file ns ("/src/" ^ f) text) edit_files;
      let files = List.map (fun f -> "/src/" ^ f) edit_names in
      let ix = Index.of_ns ns in
      List.for_all
        (fun op ->
          apply_op ns op;
          List.for_all
            (fun pat ->
              let r = re pat in
              let linear = Index.grep_linear ix r files in
              let shell =
                Rc.run sh ~cwd:"/src"
                  (Printf.sprintf "grep -n '%s' %s" pat
                     (String.concat " " edit_names))
              in
              Index.hits_text (Index.grep ix r files) = Index.hits_text linear
              && shell.Rc.r_out = as_grep linear)
            patterns)
        ops)

let edit_seed = 14

let edit_script_property =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| edit_seed |])
      prop_file_edits
  in
  ( name,
    speed,
    fun () ->
      Printf.printf "qcheck seed %d\n" edit_seed;
      run () )

(* ------------------------------------------------------------------ *)
(* The per-namespace registry                                          *)

(* A live namespace keeps its index however many namespaces come after
   it. *)
let registry_keeps_live_index () =
  let ns = Vfs.create () in
  let ix = Index.of_ns ns in
  for _ = 1 to 9 do
    ignore (Index.of_ns (Vfs.create ()))
  done;
  check_bool "the same index" true (Index.of_ns ns == ix)

(* A dropped namespace is not kept reachable by its index. *)
let registry_releases_dropped_ns () =
  let collected = ref false in
  let register () =
    let ns = Vfs.create () in
    Gc.finalise_last (fun () -> collected := true) ns;
    ignore (Index.of_ns ns)
  in
  register ();
  Gc.full_major ();
  Gc.full_major ();
  check_bool "namespace collected" true !collected

let () =
  Alcotest.run "index"
    [
      ( "planner",
        [ Alcotest.test_case "trigram extraction" `Quick planner_basics ] );
      ( "files",
        [
          Alcotest.test_case "indexed grep equals linear" `Quick
            files_indexed_equals_linear;
          Alcotest.test_case "prune resolves names against cwd" `Quick
            prune_resolves_names;
          Alcotest.test_case "generation counters" `Quick generation_counters;
          Alcotest.test_case "rebuild control" `Quick rebuild_control;
          edit_script_property;
        ] );
      ( "of_ns",
        [
          Alcotest.test_case "a live namespace keeps its index" `Quick
            registry_keeps_live_index;
          Alcotest.test_case "a dropped namespace is released" `Quick
            registry_releases_dropped_ns;
        ] );
    ]
