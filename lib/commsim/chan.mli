(** The coroutine simulator's binding of the {!Transport} abstraction.

    Party code is written against {!Transport.t}; this module produces such
    values from simulator endpoints, so the same protocol implementations
    run standalone between two parties ({!Two_party.run}) and embedded
    inside an m-player execution (a pair of {!Network} endpoints).

    [t] is kept as an alias of {!Transport.t} (with its fields re-exported)
    for existing call sites; new code should name {!Transport.t}
    directly. *)

type t = Transport.t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

(** [of_endpoint ep ~peer] views the network endpoint [ep] as a transport
    to player [peer]. *)
val of_endpoint : Network.endpoint -> peer:int -> Transport.t
