(* The wall-clock benchmark for help.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   NAME is figure-session, clients-rw or corpus-search.  Each run sets
   up and measures all three workloads, one after another on this one
   OS thread: the named one for S seconds, the other two for a fixed
   share of S, so every end-to-end metric is measured in every run.
   With --trace 1 the run measures untraced, then again with spans
   around its calls into each layer, and reports the per-layer metrics,
   a self-time table and the tracing overhead.  The last line of
   standard output is one JSON object; any output mismatch makes it say
   so and the exit code nonzero. *)

module type WORKLOAD = sig
  type t

  val name : string
  val key : string
  val create : seed:int -> traced:bool -> t
  val setup : t -> unit  (* a fresh world for a visit, warmed up *)
  val step : t -> unit
  val heap_steps : int  (* every visit runs at least this many steps *)
  val finish : t -> unit  (* end of a visit: its last checks; drops the world *)
  val enough : t -> bool
  val e2e : t -> Report.metric list
  val layers : t -> Report.metric list
  val attempted : t -> int
  val failed : t -> int
  val problems : t -> string list
end

let workloads : (module WORKLOAD) list =
  [ (module Figure_session); (module Clients_rw); (module Corpus_search) ]

let workload_name (module W : WORKLOAD) = W.name

(* Companions run this share of the named workload's seconds, and
   never less than their percentiles need. *)
let companion_share = 0.6

(* A run is this many cycles; in each, every workload gets one visit:
   a fresh set-up, then its share of the seconds.  Spreading a
   workload's samples over the whole run in short visits, rather than a
   few long stretches of it, evens out the machine's slow and fast
   spells, and the set-ups give setup_s its median. *)
let visits = 16

(* A workload that cannot gather the samples its percentiles need in
   this many seconds has failed the run, not merely run slow. *)
let cap_s = 120.

type phase = {
  name : string;
  setup_ns : int list;  (* one per visit, oldest first *)
  wall_ns : int;
  live_words : int list;  (* per visit, the larger of its two live-heap readings *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  ops : int;  (* attempted in the measured loops *)
  attempted : int;
  failed : int;
  problems : string list;
  e2e : (Report.metric list, string) result;
  layers : (Report.metric list, string) result;
}

let metrics f t = try Ok (f t) with Report.Refused msg -> Error msg

(* The live heap, exact after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

(* Two process-global caches of the program outlive the worlds that
   filled them, and what they hold when a visit starts follows how much
   earlier visits got through, that is, the machine's speed:
   - Index.of_ns keeps the index, and with it the namespace, of the
     eight newest namespaces it was asked about, so a dropped corpus or
     session stays live until eight newer namespaces push it out;
   - Regexp.compile keeps the 64 most recently used patterns, each with
     the DFA states its searches have built.
   Eight empty namespaces and 64 unused patterns push both out at the
   start of every visit, so each visit's heap readings and collector
   work start from the same state; the workload's set-up then warms
   what it uses.  The trace registry's ring and window snapshots are
   emptied too: Session.boot does that for the two workloads that boot,
   but corpus-search never boots, and its heap readings would otherwise
   carry whatever the visit before it left there (0.9 MB more after a
   clients-rw visit than after a figure-session one). *)
let forget_earlier_visits () =
  for _ = 1 to 8 do
    ignore (Index.of_ns (Vfs.create ()))
  done;
  for i = 1 to 64 do
    ignore (Regexp.compile (Printf.sprintf "perfbench_flush_%d" i))
  done;
  Trace.reset ()

(* A workload's measurement state and its visits, behind closures so
   the run can hold all three at once. *)
type live = { visit : budget_ns:int -> unit; enough : unit -> bool; close : unit -> phase }

(* Workloads never run interleaved within a visit: process-global state
   would carry one's work into another's timings (the major GC's debt,
   and Index.of_ns keeping the indexes of only the eight newest
   namespaces, which figure-session's boots would evict from under
   corpus-search).  Each visit starts from a fresh set-up and a
   collected heap instead. *)
let live (module W : WORKLOAD) ~seed ~traced =
  let t = W.create ~seed ~traced in
  let p =
    ref
      {
        name = W.name; setup_ns = []; wall_ns = 0; live_words = []; minor_words = 0.;
        promoted_words = 0.; minor_collections = 0; major_collections = 0; ops = 0;
        attempted = 0; failed = 0; problems = []; e2e = Ok []; layers = Ok [];
      }
  in
  let visit ~budget_ns =
    Spans.set_phase W.name;
    forget_earlier_visits ();
    let (), setup_ns = Timing.measure (fun () -> W.setup t) in
    (* a collected heap, so no workload pays for another's garbage, and
       the first reading: what the program retains once set up *)
    let after_setup = live_words () in
    let ops0 = W.attempted t in
    let q = !p in
    (* GC counts over the measured steps only *)
    let gc = ref q and g0 = ref (Gc.quick_stat ()) in
    let count_gc () =
      let g1 = Gc.quick_stat () and g = !gc and g0 = !g0 in
      gc :=
        {
          g with
          minor_words = g.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
          promoted_words = g.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
          minor_collections = g.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
          major_collections = g.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
        }
    in
    (* The second reading comes after a fixed number of steps, however
       fast the machine is, so what the steps leave behind (journals,
       caches, leaks) shows in it; its collection is kept out of the
       visit's time and GC counts. *)
    let after_steps = ref 0 and paused_ns = ref 0 and steps = ref 0 in
    let t0 = Timing.now_ns () in
    while !steps < W.heap_steps || Timing.now_ns () - t0 - !paused_ns < budget_ns do
      W.step t;
      incr steps;
      if !steps = W.heap_steps then begin
        count_gc ();
        let live, ns = Timing.measure live_words in
        after_steps := live;
        paused_ns := !paused_ns + ns;
        g0 := Gc.quick_stat ()
      end
    done;
    let wall_ns = Timing.now_ns () - t0 - !paused_ns in
    count_gc ();
    W.finish t;
    let g = !gc in
    p :=
      {
        g with
        setup_ns = q.setup_ns @ [ setup_ns ];
        wall_ns = q.wall_ns + wall_ns;
        live_words = max after_setup !after_steps :: q.live_words;
        ops = q.ops + (W.attempted t - ops0);
      }
  in
  let close () =
    {
      !p with
      attempted = W.attempted t;
      failed = W.failed t;
      problems = W.problems t;
      e2e = metrics W.e2e t;
      layers = (if traced then metrics W.layers t else Ok []);
    }
  in
  { visit; enough = (fun () -> W.enough t); close }

(* [visits] cycles, the named workload first in each; then more visits
   for any workload still short of samples.  With [~trace:true] every
   cycle runs an untraced and then a traced visit of each workload, so
   the two passes meet the machine in the same state and their
   difference is the tracing overhead.  Returns the untraced phases, the
   traced ones, and Gc.top_heap_words before any percentile is
   computed. *)
let run_all ~primary ~seed ~seconds ~trace =
  let order = primary :: List.filter (fun w -> w != primary) workloads in
  let pass traced =
    List.map
      (fun w ->
        let share = if w == primary then 1. else companion_share in
        (traced, live w ~seed ~traced, int_of_float (seconds *. share *. 1e9) / visits))
      order
  in
  let plain = pass false and traced = if trace then pass true else [] in
  let visit (tr, l, budget_ns) =
    Spans.set_enabled tr;
    l.visit ~budget_ns;
    Spans.set_enabled false
  in
  let t0 = Timing.now_ns () in
  for _ = 1 to visits do
    List.iter visit plain;
    List.iter visit traced
  done;
  List.iter
    (fun ((_, l, _) as r) ->
      while (not (l.enough ())) && Timing.now_ns () - t0 < int_of_float (cap_s *. 1e9) do
        visit r
      done)
    (plain @ traced);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let close = List.map (fun (_, l, _) -> l.close ()) in
  (close plain, close traced, top)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

(* The mean of the middle half. *)
let middle_mean xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let sum = ref 0 in
  for i = lo to hi - 1 do
    sum := !sum + a.(i)
  done;
  !sum / (hi - lo)

(* The set-up of one cycle is every workload's visit set-up. *)
let setup_metric phases =
  let totals =
    List.init visits (fun i ->
        List.fold_left (fun acc p -> acc + List.nth p.setup_ns i) 0 phases)
  in
  Report.metric ~samples:visits
    ~base:
      (Printf.sprintf "median of %d cycles' set-ups of all workloads; first %.3f s" visits
         (float_of_int (List.hd totals) /. 1e9))
    "setup_s" "s"
    (float_of_int (median totals) /. 1e9)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* The heap the program retains: per visit, the larger of the live
   major heap after set-up (world built, warm-up run) and after a fixed
   number of measured steps; the mean of the middle half of a
   workload's visits; the largest of the workloads.  A reading moves in
   whole steps of what a seeded query happened to load (a [uses] of
   work1 parses every unit whose text holds work1's trigrams, as
   work10 to work199 do, where most names parse a unit or two), so a
   median would jump a step from run to run where the middle half's
   mean moves by a fraction of one.  Gc.top_heap_words is printed beside
   it, but it mostly measures floating garbage, which moves with
   collector timing from run to run. *)
let heap_metric phases ~top =
  let live = List.fold_left (fun acc p -> max acc (middle_mean p.live_words)) 0 phases in
  Report.metric
    ~samples:(List.fold_left (fun acc p -> acc + List.length p.live_words) 0 phases)
    ~base:
      (Printf.sprintf
         "largest workload mean of the middle half of live heaps after set-up or fixed steps; Gc \
          top_heap_words %.1f MB"
         (mb top))
    "heap_peak_mb" "MB" (mb live)

let gc_metrics p =
  let ops = max 1 p.ops in
  let what = Printf.sprintf "%s ops" p.name in
  [
    Report.per "gc.minor_words_per_op" "words" ~num:p.minor_words ~den:ops ~what;
    Report.per "gc.promoted_words_per_op" "words" ~num:p.promoted_words ~den:ops ~what;
    Report.metric ~samples:ops "gc.major_collections" "count"
      (float_of_int p.major_collections);
  ]

let print_gc phases =
  Printf.printf "\n-- wall time and GC per workload (noise diagnosis) --\n";
  Printf.printf "%-16s %9s %9s %12s %8s %8s %14s %9s\n" "workload" "setup_s" "wall_s" "ops"
    "minor" "major" "minor_words/op" "live_MB";
  List.iter
    (fun p ->
      Printf.printf "%-16s %9.3f %9.3f %12d %8d %8d %14.1f %9.1f\n" p.name
        (float_of_int (median p.setup_ns) /. 1e9)
        (float_of_int p.wall_ns /. 1e9)
        p.ops p.minor_collections p.major_collections
        (p.minor_words /. float_of_int (max 1 p.ops))
        (mb (middle_mean p.live_words)))
    phases;
  Printf.printf "host probes: %d, %d at full speed (at most %.1f us)\n"
    (Timing.probes_taken ()) (Timing.probes_quiet ())
    (float_of_int (Timing.probe_limit ()) /. 1e3)

let print_self_times () =
  Printf.printf "\n-- self time per layer (traced run) --\n";
  Printf.printf "%-16s %-10s %10s %12s\n" "workload" "layer" "calls" "self_ms";
  List.iter
    (fun (ph, layer, calls, self) ->
      Printf.printf "%-16s %-10s %10d %12.3f\n" ph layer calls (float_of_int self /. 1e6))
    (Spans.self_by_layer ());
  Printf.printf "\n-- spans by name --\n";
  List.iter
    (fun (ph, name, calls, total, self) ->
      Printf.printf "%-16s %-20s %10d %12.3f %12.3f\n" ph name calls
        (float_of_int total /. 1e6) (float_of_int self /. 1e6))
    (Spans.by_name ())

let usage () =
  prerr_endline
    "usage: bench.exe --workload figure-session|clients-rw|corpus-search --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let primary =
    match List.find_opt (fun w -> workload_name w = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  (primary, int "seed", seconds, trace)

let spans_path ~primary ~seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Printf.sprintf "%s/spans-%s-seed%d.tsv" dir (workload_name primary) seed

let () =
  let primary, seed, seconds, trace = parse_args () in
  let plain, traced, top = run_all ~primary ~seed ~seconds ~trace in
  let setup = setup_metric plain and heap = heap_metric plain ~top in
  let all = plain @ traced in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 all in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 all in
  List.iter
    (fun p -> List.iter (fun m -> Printf.printf "MISMATCH %s: %s\n" p.name m) p.problems)
    all;
  let get = function Ok ms -> ms | Error msg -> raise (Report.Refused msg) in
  match
    let e2e = List.concat_map (fun p -> get p.e2e) plain in
    let error_rate =
      Report.metric ~samples:attempted
        ~base:(Printf.sprintf "%d failed of %d attempted" failed attempted)
        "error_rate" "ratio"
        (float_of_int failed /. float_of_int (max 1 attempted))
    in
    Report.print_table
      (Printf.sprintf "end to end, %s primary, seed %d, %g s" (workload_name primary) seed
         seconds)
      (setup :: heap :: error_rate :: e2e);
    print_gc plain;
    match traced with
    | [] -> setup :: heap :: e2e
    | phases ->
        let traced_e2e = List.concat_map (fun p -> get p.e2e) phases in
        Printf.printf "\n-- tracing overhead: traced run against untraced --\n";
        List.iter2
          (fun (u : Report.metric) (t : Report.metric) ->
            Printf.printf "%-24s %14.6g %14.6g %-4s %+8.1f%%\n" u.name u.value t.value u.unit_
              (100. *. (t.value -. u.value) /. u.value))
          e2e traced_e2e;
        print_gc phases;
        print_self_times ();
        let path = spans_path ~primary ~seed in
        Spans.write path;
        Printf.printf "\nspans written to %s (%d past the stored-span cap)\n" path
          (Spans.dropped ());
        let (module P : WORKLOAD) = primary in
        let named = List.find (fun p -> p.name = P.name) plain in
        let value ms = (List.find (fun (m : Report.metric) -> m.name = P.key) ms).value in
        let overhead =
          Report.metric ~samples:1
            ~base:(Printf.sprintf "%s traced against untraced" P.key)
            "bench.span_overhead_share" "ratio"
            ((value traced_e2e -. value e2e) /. value e2e)
        in
        let layers =
          List.concat_map (fun p -> get p.layers) phases @ gc_metrics named @ [ overhead ]
        in
        Report.print_table "per layer (traced run)" layers;
        layers
  with
  | metrics ->
      print_endline (Report.json_line ~correct:(failed = 0) ~attempted ~failed metrics);
      if failed > 0 then exit 1
  | exception Report.Refused msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 1
