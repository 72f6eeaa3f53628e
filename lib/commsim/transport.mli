(** The transport abstraction all party code is written against.

    A transport value is a bidirectional byte-stream to one fixed peer:
    [send] ships one framed payload, [recv] blocks until the peer's next
    payload arrives.  Protocol implementations consume only this record, so
    the same party function runs unchanged over the in-process coroutine
    simulator ({!Chan}) and a loopback queue pair ({!pipe}).

    This module deliberately depends on nothing but {!Bitio}: the simulator
    ({!Network}) plugs in from the outside, not the other way around. *)

type t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

(** [send tr payload] ships one payload to the peer. *)
val send : t -> Bitio.Bits.t -> unit

(** [recv tr] blocks until the peer's next payload arrives. *)
val recv : t -> Bitio.Bits.t

(** Build a transport from its two operations. *)
val make : send:(Bitio.Bits.t -> unit) -> recv:(unit -> Bitio.Bits.t) -> t

(** [pipe ()] is a pair of transports plumbed back to back with a
    same-thread queue; useful in unit tests of message-level codecs.  No
    cost accounting, and [recv] on an empty queue raises [Failure]. *)
val pipe : unit -> t * t

(** [tamper ?flip_bit ?drop_nth tr] wraps a transport with fault injection
    for robustness tests: [flip_bit (message_index, payload_length)]
    returns the bit to corrupt in that outgoing message (or [None]);
    [drop_nth] silently discards that outgoing message (0-based).
    Incoming traffic is untouched. *)
val tamper : ?flip_bit:(int -> int -> int option) -> ?drop_nth:int -> t -> t
