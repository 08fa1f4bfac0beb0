(* In-memory spans and counters for the traced run.

   Every span is recorded from the benchmark's own code, around a call into
   a public entry point of the program: a root span per run
   ([Instances.run], [Service.finalize], [Wire.Runtime.run]) or micro loop,
   and child spans for protocol steps and machine construction (see
   [Traced]). Steps may run on several domains at once (sharded engine,
   async runtime), so each domain appends to its own buffer ([Domain.DLS]);
   [collect] merges the buffers after the run, when every other domain is
   parked or joined. Wake polls are counted in per-process cells, never
   timed. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- span names ------------------------------------------------------- *)

type name = Step | Init

let name_id = function Step -> 0 | Init -> 1

(* ---- per-domain buffers ----------------------------------------------- *)

type buf = {
  dom : int;  (** dense buffer id, fixed when the domain first records *)
  mutable epoch : int;  (** the root it is registered for *)
  mutable len : int;
  mutable kind : int array;  (** [name_id] *)
  mutable t0 : int array;
  mutable t1 : int array;
}

(* Buffers that recorded under the open root. A buffer registers itself on
   its first span of each root, so domains that have ended (the async
   runtime spawns a domain per process per run) drop out after [collect]. *)
let registry_lock = Mutex.create ()
let buffers : buf list ref = ref []
let next_dom = Atomic.make 0

let buf_key =
  Domain.DLS.new_key (fun () ->
      {
        dom = Atomic.fetch_and_add next_dom 1;
        epoch = 0;
        len = 0;
        kind = Array.make 256 0;
        t0 = Array.make 256 0;
        t1 = Array.make 256 0;
      })

let grow b =
  let cap = 2 * Array.length b.kind in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.kind <- extend b.kind;
  b.t0 <- extend b.t0;
  b.t1 <- extend b.t1

(* The root span currently open on the main domain; children on any domain
   read it, and the pool barrier or domain spawn orders that read after the
   write. 0 = no run open (spans outside a root are dropped). *)
let current_root = Atomic.make 0

let record name t0 t1 =
  let run = Atomic.get current_root in
  if run <> 0 then begin
    let b = Domain.DLS.get buf_key in
    if b.epoch <> run then begin
      b.epoch <- run;
      b.len <- 0;
      Mutex.protect registry_lock (fun () -> buffers := b :: !buffers)
    end;
    if b.len = Array.length b.kind then grow b;
    let i = b.len in
    b.kind.(i) <- name_id name;
    b.t0.(i) <- t0;
    b.t1.(i) <- t1;
    b.len <- i + 1
  end

(* ---- per-process counters --------------------------------------------- *)

type cell = {
  mutable polls : int;  (** [wake] calls *)
  mutable wakes : int;  (** [wake] calls that answered [true] *)
  mutable steps : int;
  mutable sends : int;
}

let cells : cell list ref = ref []

let new_cell () =
  let c = { polls = 0; wakes = 0; steps = 0; sends = 0 } in
  Mutex.protect registry_lock (fun () -> cells := c :: !cells);
  c

(* ---- roots and their aggregates --------------------------------------- *)

type root = {
  id : int;
  label : string;
  start : int;
  stop : int;
  step_calls : int;
  step_ns : int;  (** summed over domains *)
  init_ns : int;
  covered_ns : int;  (** union of the child spans' intervals *)
  polls : int;
  wakes : int;
  sends : int;
}

let duration_ns r = r.stop - r.start
let self_ns r = duration_ns r - r.covered_ns
let next_id = ref 0

(* Spans kept for the trace file: every root, plus children until the cap
   (the aggregates above always cover every span). *)
let keep_cap = 200_000

type kept = { k_name : string; k_start : int; k_stop : int; k_parent : int; k_run : int; k_dom : int }

let kept : kept list ref = ref []
let kept_n = ref 0
let dropped = ref 0
let roots : root list ref = ref []

let union_ns intervals =
  let a = Array.of_list intervals in
  Array.sort (fun (s, _) (s', _) -> Int.compare s s') a;
  let total = ref 0 and hi = ref min_int in
  Array.iter
    (fun (s, e) ->
      if s >= !hi then total := !total + (e - s)
      else if e > !hi then total := !total + (e - !hi);
      if e > !hi then hi := e)
    a;
  !total

let collect ~id ~label ~start ~stop =
  let step_calls = ref 0 and step_ns = ref 0 and init_ns = ref 0 in
  let intervals = ref [] in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let step = b.kind.(i) = name_id Step and d = b.t1.(i) - b.t0.(i) in
        if step then begin
          incr step_calls;
          step_ns := !step_ns + d
        end
        else init_ns := !init_ns + d;
        intervals := (b.t0.(i), b.t1.(i)) :: !intervals;
        if !kept_n < keep_cap then begin
          incr kept_n;
          kept :=
            {
              k_name = (if step then "proto.step" else "proto.init");
              k_start = b.t0.(i);
              k_stop = b.t1.(i);
              k_parent = id;
              k_run = id;
              k_dom = b.dom;
            }
            :: !kept
        end
        else incr dropped
      done;
      b.len <- 0)
    !buffers;
  buffers := [];
  let polls, wakes, sends =
    List.fold_left
      (fun (p, w, s) (c : cell) -> (p + c.polls, w + c.wakes, s + c.sends))
      (0, 0, 0) !cells
  in
  cells := [];
  let r =
    {
      id;
      label;
      start;
      stop;
      step_calls = !step_calls;
      step_ns = !step_ns;
      init_ns = !init_ns;
      covered_ns = union_ns !intervals;
      polls;
      wakes;
      sends;
    }
  in
  kept :=
    { k_name = label; k_start = start; k_stop = stop; k_parent = 0; k_run = id; k_dom = 0 }
    :: !kept;
  roots := r :: !roots;
  r

(* [root label f] runs [f] as one root span and returns its result with the
   span's aggregates. Called only from the main domain. *)
let root label f =
  incr next_id;
  let id = !next_id in
  let start = now_ns () in
  Atomic.set current_root id;
  let result =
    Fun.protect ~finally:(fun () -> Atomic.set current_root 0) f
  in
  let stop = now_ns () in
  (result, collect ~id ~label ~start ~stop)

(* A micro loop: a root span with no children. *)
let micro label f = snd (root label f)

let write_csv path =
  let oc = open_out path in
  Printf.fprintf oc "# spans kept=%d children_dropped=%d (aggregates include all)\n"
    (!kept_n + List.length !roots) !dropped;
  output_string oc "name,start_ns,end_ns,parent,run,domain\n";
  List.iter
    (fun k ->
      Printf.fprintf oc "%s,%d,%d,%d,%d,%d\n" k.k_name k.k_start k.k_stop k.k_parent
        k.k_run k.k_dom)
    (List.rev !kept);
  close_out oc
