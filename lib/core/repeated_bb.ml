open Mewc_prelude
open Mewc_crypto
open Mewc_sim

type entry = Committed of string | Skipped

let equal_entry a b =
  match (a, b) with
  | Committed x, Committed y -> String.equal x y
  | Skipped, Skipped -> true
  | Committed _, Skipped | Skipped, Committed _ -> false

let pp_entry fmt = function
  | Committed v -> Format.fprintf fmt "commit(%s)" v
  | Skipped -> Format.pp_print_string fmt "skip"

type msg = { index : int; inner : Adaptive_bb.msg }

let words { inner; _ } = Adaptive_bb.words inner
let pp_msg fmt { index; inner } =
  Format.fprintf fmt "[slot %d] %a" index Adaptive_bb.pp_msg inner

type state = {
  cfg : Config.t;
  pki : Pki.t;
  secret : Pki.Secret.t;
  pid : Pid.t;
  length : int;
  offset : int;
  stride : int;
  propose : int -> string;
  instances : Adaptive_bb.state option array;
  pending : Adaptive_bb.msg Envelope.t list array;
      (* reversed, per index; empty between steps *)
}

let stride cfg = Adaptive_bb.horizon cfg

let check_offset cfg = function
  | None -> stride cfg
  | Some off ->
    if off < 1 || off > stride cfg then
      invalid_arg
        (Printf.sprintf "Repeated_bb: offset must be in [1, %d], got %d"
           (stride cfg) off);
    off

let horizon ?offset cfg ~length =
  let offset = check_offset cfg offset in
  ((length - 1) * offset) + stride cfg

let proposer cfg i = i mod cfg.Config.n

let init ~cfg ~pki ~secret ~pid ~length ?offset ~propose () =
  if length < 1 then invalid_arg "Repeated_bb.init: length >= 1";
  let offset = check_offset cfg offset in
  {
    cfg;
    pki;
    secret;
    pid;
    length;
    offset;
    stride = stride cfg;
    propose;
    instances = Array.make length None;
    pending = Array.make length [];
  }

let log st =
  Array.map
    (fun inst ->
      Option.bind inst (fun i ->
          match Adaptive_bb.decision i with
          | Some (Adaptive_bb.Decided v) -> Some (Committed v)
          | Some Adaptive_bb.No_decision -> Some Skipped
          | None -> None))
    st.instances

let decided_slots st =
  Array.map (fun inst -> Option.bind inst Adaptive_bb.decided_at) st.instances

(* The live window at [slot]. Instance [i] starts at [i * offset] and its
   inner BB is silent after [stride] slots, so only the instances whose
   [stride]-slot life (plus one stride of slack for messages in flight at
   the boundary) covers [slot] can make progress: [window_lo .. window_hi].
   Stepping just that window keeps a k-slot log linear in k at any pipeline
   depth. The bounds are two functions rather than one pair so that the
   wake poll allocates nothing. *)
let window_lo st ~slot =
  (* smallest i with i*offset + 2*stride > slot; integer division
     truncates toward zero, so guard the negative numerator. *)
  if slot < 2 * st.stride then 0 else ((slot - (2 * st.stride)) / st.offset) + 1

let window_hi st ~slot = min (st.length - 1) (slot / st.offset)

(* The process timer: some live instance has just entered the window (it
   must be initialised) or answers its own timer. [pending] is drained by
   every step, so a delivery-free slot leaves nothing parked to account
   for. Called once per idle replica per slot, so it is a loop over plain
   reads — no closure, no allocation, no polymorphic compare. *)
let wake ~slot st =
  let hi = window_hi st ~slot in
  let i = ref (window_lo st ~slot) in
  let due = ref false in
  while (not !due) && !i <= hi do
    (due :=
       match st.instances.(!i) with
       | None -> true
       | Some inst -> Adaptive_bb.wake ~slot inst);
    incr i
  done;
  !due

let step ~slot ~inbox st =
  let lo = window_lo st ~slot and hi = window_hi st ~slot in
  (* A delivery outside the window is dropped: an instance below [lo] is
     never stepped again, and one above [hi] would ingest it at its
     [rel = 0], where no message is acted on. *)
  List.iter
    (fun env ->
      let { index; inner } = env.Envelope.msg in
      if index >= lo && index <= hi then
        st.pending.(index) <-
          {
            Envelope.src = env.Envelope.src;
            dst = env.Envelope.dst;
            sent_at = env.Envelope.sent_at;
            msg = inner;
          }
          :: st.pending.(index))
    inbox;
  let out = ref [] in
  for i = lo to hi do
    let inst =
      match st.instances.(i) with
      | Some inst -> inst
      | None ->
        let sender = proposer st.cfg i in
        let inst =
          Adaptive_bb.init ~cfg:st.cfg ~pki:st.pki ~secret:st.secret
            ~pid:st.pid ~sender
            ~input:(if Pid.equal st.pid sender then Some (st.propose i) else None)
            ~start_slot:(i * st.offset)
        in
        st.instances.(i) <- Some inst;
        inst
    in
    (* An instance with no mail and no due timer is left alone: its step
       would be a no-op by the [Process.wake] contract. *)
    match st.pending.(i) with
    | [] when not (Adaptive_bb.wake ~slot inst) -> ()
    | pending ->
      st.pending.(i) <- [];
      let inst', sends = Adaptive_bb.step ~slot ~inbox:(List.rev pending) inst in
      st.instances.(i) <- Some inst';
      out :=
        List.map (fun (m, dst) -> ({ index = i; inner = m }, dst)) sends @ !out
  done;
  (st, !out)

type outcome = {
  logs : entry option array array;
  decided_slots : int option array array;
  corrupted : Pid.t list;
  faulty : Pid.t list;
  f : int;
  words : int;
  slots : int;
  words_per_slot : float;
}

let run ~cfg ?(seed = 1L) ?offset ?options ~length ~propose ~adversary () =
  let n = cfg.Config.n in
  let pki, secrets = Pki.setup ~seed ~n () in
  let protocol pid =
    {
      Process.init =
        init ~cfg ~pki ~secret:secrets.(pid) ~pid ~length ?offset
          ~propose:(propose pid) ();
      step;
      wake = Some wake;
    }
  in
  let adversary = adversary ~pki ~secrets in
  let res =
    Engine.run ~cfg ?options ~words
      ~horizon:(horizon ?offset cfg ~length)
      ~protocol ~adversary ()
  in
  let words_total = Meter.correct_words res.Engine.meter in
  {
    logs = Array.map log res.Engine.states;
    decided_slots = Array.map decided_slots res.Engine.states;
    corrupted = res.Engine.corrupted;
    faulty = res.Engine.faulty;
    f = res.Engine.f;
    words = words_total;
    slots = res.Engine.slots;
    words_per_slot = float_of_int words_total /. float_of_int length;
  }
