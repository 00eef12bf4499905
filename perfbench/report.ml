(* Metrics as the benchmark reports them: a value with its unit, the
   number of samples behind it and, for a percentile, its base. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  base : string;  (* what the value is taken over *)
}

exception Refused of string

let metric ?(samples = 1) ?(base = "") name unit_ value =
  if not (Float.is_finite value) then raise (Refused (name ^ " is not a number"));
  { name; unit_; value; samples; base }

(* The samples a figure is taken over: the quiet ones (under
   Timing.probe_limit), or, when fewer than [need] are quiet or some
   kind has none, that many from the quietest operations; and a note
   saying which. *)
let gated ~need s =
  let lim = Timing.limit_for ~need s in
  let g = Timing.under lim s in
  let which =
    if lim = Timing.probe_limit () then
      Printf.sprintf "%d quiet of %d" (Timing.count g) (Timing.count s)
    else
      Printf.sprintf "%d quietest of %d (probes up to %.1f us)" (Timing.count g)
        (Timing.count s) (float_of_int lim /. 1e3)
  in
  (lim, g, which)

(* A percentile of timings in nanoseconds, scaled to [unit_], over the
   quiet samples with every kind kept at its share of all samples; the
   percentile over all samples is noted beside it. *)
let pct name unit_ ~scale ~what s p =
  let _, g, which = gated ~need:(Timing.needed p) s in
  let all =
    match Timing.percentile s p with
    | Ok v -> Printf.sprintf "; all samples %.4g" (v /. scale)
    | Error _ -> ""
  in
  match Timing.balanced_percentile ~all:s g p with
  | Ok v ->
      metric ~samples:(Timing.count g)
        ~base:(Printf.sprintf "p%g of %s %s%s" p which what all)
        name unit_ (v /. scale)
  | Error msg -> raise (Refused (name ^ ": " ^ msg))

(* A tail percentile over every sample: the host's slow spells are part
   of the tail a user meets in every run, while the quiet samples of a
   run seldom reach the 1000 a p99 needs, and a p99 that took them in
   some runs and not in others would jump between two tails. *)
let tail name unit_ ~scale ~what s p =
  match Timing.percentile s p with
  | Ok v ->
      metric ~samples:(Timing.count s)
        ~base:(Printf.sprintf "p%g of all %d %s" p (Timing.count s) what)
        name unit_ (v /. scale)
  | Error msg -> raise (Refused (name ^ ": " ^ msg))

let ratio name ~num ~den ~what =
  metric ~samples:den
    ~base:(Printf.sprintf "%d / %d %s" num den what)
    name "ratio"
    (if den = 0 then 0. else float_of_int num /. float_of_int den)

let per name unit_ ~num ~den ~what =
  metric ~samples:den
    ~base:(Printf.sprintf "%g over %d %s" num den what)
    name unit_
    (if den = 0 then 0. else num /. float_of_int den)

let print_table title ms =
  Printf.printf "\n-- %s --\n" title;
  List.iter
    (fun m ->
      Printf.printf "%-34s %14.6g %-7s n=%-8d %s\n" m.name m.value m.unit_
        m.samples m.base)
    ms

let json_number v = Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed ms =
  let entry m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map entry ms))
