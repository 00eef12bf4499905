(* Every time the benchmark reports comes from here: one reading of the
   monotonic clock, one measure helper, the host probes that mark which
   samples were taken at full speed, and one percentile helper that
   refuses a percentile it cannot support. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let measure f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Host probes.  On a shared virtual machine the same work runs at
   different speeds from one moment to the next, for reasons outside
   the process: on a 2-vCPU Xeon guest, a fixed integer kernel that
   touches no memory takes about 35 us in the fast state and about
   60 us in the slow one, and the slow state comes in spells from a
   millisecond to seconds.  Each measured operation is bracketed by
   [begin_op] and [end_op], which each time the kernel once (a probe);
   before a long operation, [begin_op] may probe again for a while until
   a reading is at full speed, since a long operation seldom runs at
   full speed from end to end otherwise.  Every sample taken in between
   is tagged with that operation, which reads the slower of its opening
   and closing probes. *)
let probe_work () =
  let x = ref 0 in
  for i = 1 to 40_000 do
    x := !x + (i * i) land 7
  done;
  Sys.opaque_identity !x

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* a growable int array outside the heap *)
type column = { mutable a : ints; mutable len : int }

let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let column () = { a = ints 256; len = 0 }

let append c v =
  if c.len = Bigarray.Array1.dim c.a then begin
    let bigger = ints (2 * c.len) in
    Bigarray.Array1.blit c.a (Bigarray.Array1.sub bigger 0 c.len);
    c.a <- bigger
  end;
  Bigarray.Array1.unsafe_set c.a c.len v;
  c.len <- c.len + 1

let get c i = Bigarray.Array1.get c.a i

(* Probe readings in 250 ns buckets, for the run's fast reading. *)
let bucket_ns = 250
let buckets = Array.make 4096 0
let n_probes = ref 0

(* A probe reads the host at full speed when it takes at most this much
   more than the run's tenth fastest probe: when the host is busy most
   of a run, full speed is rare, but some probes always meet it. *)
let quiet_factor = 1.25

let probe_limit () =
  if !n_probes = 0 then max_int
  else begin
    let want = min 10 !n_probes in
    let rec go b seen =
      let seen = seen + buckets.(b) in
      if seen >= want || b = Array.length buckets - 1 then b else go (b + 1) seen
    in
    int_of_float (quiet_factor *. float_of_int ((go 0 0 + 1) * bucket_ns))
  end

let probe () =
  let t0 = now_ns () in
  ignore (probe_work ());
  let dt = now_ns () - t0 in
  let b = min (Array.length buckets - 1) (dt / bucket_ns) in
  buckets.(b) <- buckets.(b) + 1;
  incr n_probes;
  dt

let probes_taken () = !n_probes

let probes_quiet () =
  let lim = probe_limit () in
  let k = ref 0 in
  Array.iteri (fun b n -> if (b + 1) * bucket_ns <= lim then k := !k + n) buckets;
  !k

(* Per operation, its reading; the open one reads max_int until it
   ends. *)
let readings = column ()
let current = ref (-1)  (* the open operation; -1 = none *)

let begin_op ?(settle_ns = 0) () =
  let lim = if settle_ns > 0 then probe_limit () else max_int in
  let t0 = now_ns () in
  let rec settle () =
    let r = probe () in
    if r <= lim || now_ns () - t0 >= settle_ns then r else settle ()
  in
  let r = settle () in
  current := readings.len;
  append readings r

let end_op () =
  let u = !current in
  if u >= 0 then begin
    let r = probe () in
    Bigarray.Array1.set readings.a u (max r (get readings u));
    current := -1
  end

let op ?settle_ns f =
  begin_op ?settle_ns ();
  Fun.protect ~finally:end_op f

(* A sample's reading: its operation's; 0 for a sample taken outside
   any; max_int while its operation is open. *)
let reading u = if u < 0 then 0 else if u = !current then max_int else get readings u

(* Samples live outside the OCaml heap, so a run's millions of RPC
   latencies do not show up in the live heap it reports for the
   program.  Each carries its operation and a kind. *)
type store = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type samples = { mutable data : store; ops : column; kinds : column; mutable n : int }

let alloc n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let samples () = { data = alloc 256; ops = column (); kinds = column (); n = 0 }

let push s v ~op ~kind =
  if s.n = Bigarray.Array1.dim s.data then begin
    let bigger = alloc (2 * s.n) in
    Bigarray.Array1.blit s.data (Bigarray.Array1.sub bigger 0 s.n);
    s.data <- bigger
  end;
  Bigarray.Array1.unsafe_set s.data s.n v;
  append s.ops op;
  append s.kinds kind;
  s.n <- s.n + 1

let add ?(kind = 0) s v = push s v ~op:!current ~kind
let count s = s.n

let under lim s =
  let q = samples () in
  for i = 0 to s.n - 1 do
    let op = get s.ops i in
    if reading op <= lim then push q (Bigarray.Array1.get s.data i) ~op ~kind:(get s.kinds i)
  done;
  q

(* Raised, when it must be, until [need] samples are under it, and
   until every kind has one. *)
let limit_for ~need s =
  let best = Hashtbl.create 16 in
  for i = 0 to s.n - 1 do
    let k = get s.kinds i and r = reading (get s.ops i) in
    match Hashtbl.find_opt best k with
    | Some b when b <= r -> ()
    | _ -> Hashtbl.replace best k r
  done;
  let lim = Hashtbl.fold (fun _ r acc -> max r acc) best (probe_limit ()) in
  if need > s.n || (under lim s).n >= need then lim
  else begin
    let r = Array.init s.n (fun i -> reading (get s.ops i)) in
    Array.sort compare r;
    max lim r.(need - 1)
  end

let sum s =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do
    acc := !acc +. Bigarray.Array1.get s.data i
  done;
  !acc

let mean s = if s.n = 0 then 0. else sum s /. float_of_int s.n

(* A percentile is only as good as the tail behind it: with fewer than
   this many samples strictly above its rank, p99 is one unlucky
   outlier, not a tail. *)
let min_beyond = 10

(* Nearest rank: the smallest sample with at least p percent of the
   samples at or below it. *)
let rank p n = max 1 (int_of_float (ceil (p *. float_of_int n /. 100.)))

let needed p =
  if p < 0. || p >= 100. then invalid_arg "Timing.needed";
  let rec go n = if n - rank p n >= min_beyond then n else go (n + 1) in
  go 1

let check s p =
  let beyond = s.n - rank p s.n in
  if p < 0. || p >= 100. then Error (Printf.sprintf "p%g is not a percentile" p)
  else if beyond < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; %d needed" p s.n (max 0 beyond)
         min_beyond)
  else Ok ()

let percentile s p =
  Result.map
    (fun () ->
      let sorted = Float.Array.init s.n (Bigarray.Array1.get s.data) in
      Float.Array.stable_sort Float.compare sorted;
      Float.Array.get sorted (rank p s.n - 1))
    (check s p)

(* Kinds of [sel] weighted back to their shares in [all]: the smallest
   sample whose cumulative weight reaches p percent of the total. *)
let balanced_percentile ~all sel p =
  Result.bind (check sel p) (fun () ->
      let count_kinds s =
        let t = Hashtbl.create 16 in
        for i = 0 to s.n - 1 do
          let k = get s.kinds i in
          Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k))
        done;
        t
      in
      let n_all = count_kinds all and n_sel = count_kinds sel in
      if Hashtbl.length n_sel <= 1 then percentile sel p
      else
      let weight k =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt n_all k))
        /. float_of_int (Hashtbl.find n_sel k)
      in
      let order = Array.init sel.n Fun.id in
      Array.stable_sort
        (fun i j ->
          Float.compare (Bigarray.Array1.get sel.data i) (Bigarray.Array1.get sel.data j))
        order;
      let total = Array.fold_left (fun acc i -> acc +. weight (get sel.kinds i)) 0. order in
      let target = p /. 100. *. total in
      let rec go j acc =
        let i = order.(j) in
        let acc = acc +. weight (get sel.kinds i) in
        if acc >= target || j = sel.n - 1 then Bigarray.Array1.get sel.data i else go (j + 1) acc
      in
      Ok (go 0 0.))
