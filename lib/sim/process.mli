(** Protocol state machines.

    A process is a deterministic state machine driven by the synchronous
    engine: at every slot it receives the messages delivered at the start of
    that slot and emits the messages it sends during it. Time is measured in
    δ-slots — the known message-delay bound of the synchronous model
    (paper §2): a message sent in slot [s] is delivered at the start of slot
    [s + 1]. A paper "round" is a single slot; the fallback's δ' = 2δ rounds
    span two slots. *)

type ('s, 'm) t = {
  init : 's;
  step :
    slot:int -> inbox:'m Envelope.t list -> 's -> 's * ('m * Mewc_prelude.Pid.t) list;
      (** [step ~slot ~inbox state] returns the new state and the messages
          to send, as [(payload, destination)] pairs. The inbox holds
          everything delivered at the start of [slot] (i.e. sent during
          [slot - 1]), in arrival order. *)
  wake : (slot:int -> 's -> bool) option;
      (** The machine's timer: does it need to step at [slot] even with an
          empty inbox? The event-driven scheduler skips a process exactly
          when it has no deliveries and [wake] answers [false]; the contract
          is that such a step would be a no-op — [step ~slot ~inbox:[] s]
          sends nothing and leaves the state observationally unchanged (a
          skipped step must never alter any future send, decision, or state
          projection; internally inert bookkeeping such as materializing an
          empty scratch table is tolerated). Answering
          [true] too often is always safe (the process merely steps, as the
          [`Legacy] policy makes it do every slot); answering [false] when
          the step would have acted breaks scheduler equivalence. [None]
          means "always step" — the conservative default that makes any
          machine event-scheduler-correct. Under [`Legacy] the engine
          treats every machine as [None] and never calls [wake]. *)
}

val broadcast : n:int -> 'm -> ('m * Mewc_prelude.Pid.t) list
(** [broadcast ~n msg] addresses [msg] to all [n] processes (including the
    sender itself; self-delivery is free of charge and arrives next slot
    like any other message). *)

val broadcast_others : n:int -> self:Mewc_prelude.Pid.t -> 'm -> ('m * Mewc_prelude.Pid.t) list
(** Same, excluding the sender. *)

val silent : 's -> ('s, 'm) t
(** A machine that never sends anything (used for crashed processes). Its
    [wake] is constantly [false]: the event-driven scheduler never steps
    it. *)
