(* corpus-search: one user, closed loop, over the synthetic C corpus at
   20x the real one (260 units) in a plain namespace: no session, no
   9P.  The user runs a seeded mix through Rc.run: a selective grep the
   trigram index prunes to a file or two, a grep with no usable trigram
   (the linear fallback), an edit then a grep (a stale reindex), and
   [uses] through Cbr.uses_at over the index.  Regexp, index and cbr do
   almost all the work; the fallback and edit queries take the paths
   where the index cannot help, so an index-only gain cannot hide a
   loss on the linear path. *)

let name = "corpus-search"

(* The latency the traced run reports its overhead on. *)
let key = "grep_ms_p50"
let scale = 20

(* No run of three literal bytes: the planner must fall back. *)
let fallback_patterns =
  [ "[a-z]+ [<>] [0-9]+"; "[a-z][0-9]+ =[ ]c"; "[a-z]\\+\\+[)]"; "[a-z]+ =[ ][0-9];" ]

(* One visit's corpus: a fresh namespace, shell and indexes. *)
type world = {
  ns : Vfs.t;
  sh : Rc.t;
  dir : string;
  units : string list;  (* basenames, in glob order *)
  paths : string list;
  originals : string array;
  def_line : int;  (* line of "int workN(int x)" in every module *)
  ix : Index.t;
  cbr : Cbr.index;
}

type t = {
  mutable world : world option;
  rng : Random.State.t;
  traced : bool;
  grep : Timing.samples;
  edit_grep : Timing.samples;
  uses : Timing.samples;
  mutable selective : int;
  mutable fallback : int;
  mutable edits : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  (* traced run only *)
  glob : Timing.samples;
  prune : Timing.samples;
  mutable candidates : int;
  mutable planned : int;
  mutable fallbacks : int;
  counts : (string, int) Hashtbl.t;
}

let world t =
  match t.world with Some w -> w | None -> invalid_arg "corpus-search: no world set up"

let problem t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 5 then t.problems <- msg :: t.problems

let value n = Option.value ~default:0 (Trace.find_value n)

let counter_names =
  [ "regexp.compile.hit"; "regexp.compile.miss"; "regexp.dfa.cache_hit";
    "regexp.dfa.cache_miss"; "regexp.search.bytes"; "regexp.prefilter.skipped_bytes";
    "index.stale.reindexed"; "cbr.unit.hit"; "cbr.unit.miss"; "vfs.walk"; "vfs.stat";
    "vfs.open"; "vfs.read"; "vfs.write"; "vfs.create"; "vfs.remove"; "vfs.readdir" ]

let bump t k d = Hashtbl.replace t.counts k (Option.value ~default:0 (Hashtbl.find_opt t.counts k) + d)

(* Counter deltas are taken around each timed query only, so the traced
   run's own planner calls and the output checks stay out of them. *)
let counted t kind f =
  if not t.traced then f ()
  else begin
    let before = List.map value counter_names in
    let r = f () in
    List.iter2 (fun k b -> bump t k (value k - b)) counter_names before;
    bump t ("queries." ^ kind) 1;
    r
  end

let hits_as_grep hits =
  String.concat ""
    (List.map
       (fun h ->
         Printf.sprintf "%s:%d:%s\n" (Vfs.basename h.Index.h_doc) h.Index.h_line
           h.Index.h_text)
       hits)

(* One grep through the shell, timed into [samples]; a seeded share is
   rerun through the linear scan and must agree byte for byte. *)
let grep ?(cls = 0) t samples ~kind pat =
  let w = world t in
  t.attempted <- t.attempted + 1;
  let cmd = Printf.sprintf "grep -n '%s' *.c" pat in
  let r =
    Timing.op (fun () ->
        let r, ns =
          counted t kind (fun () ->
              Timing.measure (fun () ->
                  Spans.with_span "shell.grep" (fun () -> Rc.run w.sh ~cwd:w.dir cmd)))
        in
        Timing.add ~kind:cls samples (float_of_int ns);
        r)
  in
  if r.Rc.r_status <> 0 || r.Rc.r_err <> "" || r.Rc.r_out = "" then
    problem t (Printf.sprintf "%s: status %d %s" cmd r.Rc.r_status r.Rc.r_err);
  let re = Regexp.compile pat in
  if t.traced then begin
    Timing.op (fun () ->
        let _, gns =
          Timing.measure (fun () ->
              Spans.with_span "shell.glob" (fun () -> Rc.run w.sh ~cwd:w.dir "echo *.c"))
        in
        Timing.add t.glob (float_of_int gns));
    let q, keep =
      Timing.op (fun () ->
          let r, pns =
            Timing.measure (fun () ->
                Spans.with_span "index.prune" (fun () ->
                    let q = Index.plan re in
                    (q, Index.prune w.ix q w.paths)))
          in
          Timing.add ~kind:cls t.prune (float_of_int pns);
          r)
    in
    t.planned <- t.planned + 1;
    t.candidates <- t.candidates + List.length keep;
    if not (Index.query_useful q) then t.fallbacks <- t.fallbacks + 1
  end;
  if Random.State.int t.rng 8 = 0 then begin
    if hits_as_grep (Index.grep_linear w.ix re w.paths) <> r.Rc.r_out then
      problem t (Printf.sprintf "%s differs from the linear scan" cmd)
  end;
  r.Rc.r_out

(* A uses query takes some 6 ms: it waits up to 10 ms for the host to
   read at full speed first (see timing.ml). *)
let uses t k =
  let w = world t in
  t.attempted <- t.attempted + 1;
  let name = Printf.sprintf "work%d" k in
  let file = List.nth w.units k in
  let refs =
    Timing.op ~settle_ns:10_000_000 (fun () ->
        let refs, ns =
          counted t "uses" (fun () ->
              Timing.measure (fun () ->
                  Spans.with_span "cbr.uses" (fun () ->
                      Cbr.uses_at ~search:w.ix ~index:w.cbr w.ns ~cwd:w.dir w.units ~file
                        ~line:w.def_line ~name)))
        in
        Timing.add t.uses (float_of_int ns);
        refs)
  in
  if refs = [] then problem t ("uses " ^ name ^ ": no references");
  (* the linear analysis parses all 260 units: check the first query
     and a seeded few *)
  if Timing.count t.uses = 1 || Random.State.int t.rng 256 = 0 then begin
    if Cbr.uses_at w.ns ~cwd:w.dir w.units ~file ~line:w.def_line ~name <> refs then
      problem t ("uses " ^ name ^ " differs from the linear analysis")
  end

(* One query of a kind: 0 selective grep, 1 fallback grep, 2 edit then
   grep, 3 uses; [k] picks the module.  Each fallback pattern is a kind
   of grep of its own, apart from the selective ones. *)
let query t kind k =
  let w = world t in
  match kind with
  | 0 ->
      t.selective <- t.selective + 1;
      ignore (grep t t.grep ~kind:"grep" (Printf.sprintf "counter%d = counter%d" k k))
  | 1 ->
      t.fallback <- t.fallback + 1;
      let pats = fallback_patterns in
      let i = k mod List.length pats in
      ignore (grep ~cls:(1 + i) t t.grep ~kind:"grep" (List.nth pats i))
  | 2 ->
      (* one marker line per module at most, so the corpus keeps its size *)
      t.edits <- t.edits + 1;
      let marker = Printf.sprintf "edit_marker_%d" t.edits in
      Vfs.write_file w.ns (List.nth w.paths k)
        (w.originals.(k) ^ Printf.sprintf "int %s;\n" marker);
      let out = grep t t.edit_grep ~kind:"edit" marker in
      let file = List.nth w.units k in
      if not (String.starts_with ~prefix:file out) then
        problem t (marker ^ " not found in " ^ file)
  | _ -> uses t k

(* The mix of query kinds has no source to follow: the paper's session
   runs one [uses] and no grep, and E14 times each kind apart.  The
   weights (9 selective, 5 fallback, 3 edit-then-grep, 3 uses in 20)
   are chosen so that grep_ms_p50 falls on the indexed path and
   grep_ms_p99 on the linear fallback's tail (see perfbench/DESIGN.md).
   A step is one block of those 20 queries in a seeded order, so every
   step holds the same mix. *)
let block = Array.concat [ Array.make 9 0; Array.make 5 1; Array.make 3 2; Array.make 3 3 ]

let step t =
  let modules = List.length (world t).units in
  let order = Array.copy block in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int t.rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iter (fun kind -> query t kind (Random.State.int t.rng modules)) order

let create ~seed ~traced =
  List.iter
    (fun p ->
      if Index.query_useful (Index.plan (Regexp.compile p)) then
        failwith ("corpus-search: fallback pattern has trigrams: " ^ p))
    fallback_patterns;
  let fresh () = Timing.samples () in
  {
    world = None;
    rng = Random.State.make [| seed; 0xc5 |];
    traced;
    grep = fresh (); edit_grep = fresh (); uses = fresh (); selective = 0; fallback = 0;
    edits = 0;
    attempted = 0; failed = 0; problems = [];
    glob = fresh (); prune = fresh (); candidates = 0; planned = 0; fallbacks = 0;
    counts = Hashtbl.create 32;
  }

(* Install the corpus in a fresh namespace; the first query builds the
   index, and one grep of each fallback pattern builds the DFA states
   its scans need.  The warm-up's outputs are checked like any other;
   its timings and counts go to a throwaway copy. *)
let setup t =
  let ns = Vfs.create () in
  let modules = scale * List.length Corpus.c_files in
  let dir = Corpus.install_synthetic ns ~modules in
  let sh = Rc.create ns in
  Coreutils.install sh;
  let units = List.init modules (Printf.sprintf "mod%03d.c") in
  let paths = List.map (fun u -> dir ^ "/" ^ u) units in
  let originals = Array.of_list (List.map (Vfs.read_file ns) paths) in
  let def_line =
    let rec go i = function
      | [] -> failwith "corpus-search: no definition line"
      | l :: rest ->
          if String.starts_with ~prefix:"int work" l then i else go (i + 1) rest
    in
    go 1 (String.split_on_char '\n' originals.(0))
  in
  t.world <-
    Some
      { ns; sh; dir; units; paths; originals; def_line; ix = Index.of_ns ns;
        cbr = Cbr.create_index () };
  let fresh () = Timing.samples () in
  let w = { t with glob = fresh (); prune = fresh (); counts = Hashtbl.create 32 } in
  ignore (grep w (fresh ()) ~kind:"warm" "counter0 = counter0");
  List.iter (fun p -> ignore (grep w (fresh ()) ~kind:"warm" p)) fallback_patterns;
  t.attempted <- w.attempted;
  t.failed <- w.failed;
  t.problems <- w.problems

(* The second live-heap reading of a visit comes after this many
   blocks (60 queries, 9 of them uses). *)
let heap_steps = 3

let enough t =
  Timing.count t.grep >= Timing.needed 99.
  && Timing.count t.edit_grep >= Timing.needed 50.
  && Timing.count t.uses >= Timing.needed 50.

let ms = 1e6

let e2e t =
  let greps = Printf.sprintf "greps (%d selective, %d fallback)" t.selective t.fallback in
  [
    Report.pct "grep_ms_p50" "ms" ~scale:ms ~what:greps t.grep 50.;
    Report.tail "grep_ms_p99" "ms" ~scale:ms ~what:greps t.grep 99.;
    Report.pct "edit_grep_ms_p50" "ms" ~scale:ms ~what:"greps after an edit" t.edit_grep 50.;
    Report.pct "uses_ms_p50" "ms" ~scale:ms ~what:"uses queries" t.uses 50.;
  ]

let layers t =
  let c k = Option.value ~default:0 (Hashtbl.find_opt t.counts k) in
  let queries = c "queries.grep" + c "queries.edit" + c "queries.uses" in
  let vfs_ops =
    List.fold_left
      (fun acc k -> if String.starts_with ~prefix:"vfs." k then acc + c k else acc)
      0 counter_names
  in
  let ratio name a b what = Report.ratio name ~num:(c a) ~den:(c a + c b) ~what in
  [
    Report.pct "shell.grep_parse_glob_ms" "ms" ~scale:ms ~what:"echo *.c runs" t.glob 50.;
    Report.per "vfs.ops_per_query" "1/query" ~num:(float_of_int vfs_ops) ~den:queries
      ~what:"queries";
    ratio "regexp.compile_hit_ratio" "regexp.compile.hit" "regexp.compile.miss" "compiles";
    ratio "regexp.dfa_hit_ratio" "regexp.dfa.cache_hit" "regexp.dfa.cache_miss" "DFA steps";
    Report.per "regexp.bytes_per_query" "B/query"
      ~num:(float_of_int (c "regexp.search.bytes"))
      ~den:(c "queries.grep" + c "queries.edit") ~what:"greps";
    ratio "regexp.prefilter_skip_ratio" "regexp.prefilter.skipped_bytes"
      "regexp.search.bytes" "bytes skipped or searched";
    Report.pct "index.prune_ms" "ms" ~scale:ms ~what:"plan+prune calls" t.prune 50.;
    Report.per "index.candidates_per_query" "files" ~num:(float_of_int t.candidates)
      ~den:t.planned ~what:"planned greps";
    Report.ratio "index.fallback_share" ~num:t.fallbacks ~den:t.planned ~what:"planned greps";
    Report.per "index.reindexed_per_edit" "docs"
      ~num:(float_of_int (c "index.stale.reindexed")) ~den:t.edits ~what:"edits";
    ratio "cbr.unit_hit_ratio" "cbr.unit.hit" "cbr.unit.miss" "unit lookups";
    Report.per "cbr.units_per_uses" "units"
      ~num:(float_of_int (c "cbr.unit.hit" + c "cbr.unit.miss")) ~den:(c "queries.uses")
      ~what:"uses queries";
  ]

let finish t = t.world <- None
let attempted t = t.attempted
let failed t = t.failed
let problems t = List.rev t.problems
