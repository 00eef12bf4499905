(* Spans recorded from the benchmark's own files, around its calls into
   each layer.  Self times are aggregated as spans close, so the table
   covers every span; the stored spans written out at the end are
   capped to keep a long traced run's memory flat. *)

type span = {
  id : int;
  parent : int;  (* 0 = top level *)
  phase : string;
  name : string;
  start_ns : int;
  stop_ns : int;
}

type frame = {
  f_id : int;
  f_start : int;
  mutable f_child_ns : int;  (* time covered by direct children *)
}

type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

let enabled = ref false
let phase = ref ""
let stack : frame list ref = ref []
let next_id = ref 0
let capacity = 200_000
let stored : span list ref = ref []
let n_stored = ref 0
let n_dropped = ref 0
let table : (string * string, agg) Hashtbl.t = Hashtbl.create 64

let set_enabled b = enabled := b
let set_phase p = phase := p

let close name fr =
  let stop = Timing.now_ns () in
  stack := List.tl !stack;
  let dur = stop - fr.f_start in
  let parent =
    match !stack with
    | p :: _ ->
        p.f_child_ns <- p.f_child_ns + dur;
        p.f_id
    | [] -> 0
  in
  let key = (!phase, name) in
  let a =
    match Hashtbl.find_opt table key with
    | Some a -> a
    | None ->
        let a = { calls = 0; total_ns = 0; self_ns = 0 } in
        Hashtbl.add table key a;
        a
  in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + (dur - fr.f_child_ns);
  if !n_stored < capacity then begin
    stored :=
      { id = fr.f_id; parent; phase = !phase; name; start_ns = fr.f_start;
        stop_ns = stop }
      :: !stored;
    incr n_stored
  end
  else incr n_dropped

let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let fr = { f_id = !next_id; f_start = Timing.now_ns (); f_child_ns = 0 } in
    stack := fr :: !stack;
    match f () with
    | r ->
        close name fr;
        r
    | exception e ->
        close name fr;
        raise e
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let self_by_layer () =
  let acc = Hashtbl.create 32 in
  Hashtbl.iter
    (fun (ph, name) a ->
      let key = (ph, layer name) in
      let calls, self = Option.value ~default:(0, 0) (Hashtbl.find_opt acc key) in
      Hashtbl.replace acc key (calls + a.calls, self + a.self_ns))
    table;
  List.sort compare
    (Hashtbl.fold (fun (ph, l) (c, s) rows -> (ph, l, c, s) :: rows) acc [])

let by_name () =
  List.sort compare
    (Hashtbl.fold
       (fun (ph, name) a rows -> (ph, name, a.calls, a.total_ns, a.self_ns) :: rows)
       table [])

let dropped () = !n_dropped

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\tphase\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%d\n" s.id s.parent s.phase s.name
        s.start_ns s.stop_ns)
    (List.rev !stored);
  close_out oc
