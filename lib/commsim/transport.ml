type t = { send : Bitio.Bits.t -> unit; recv : unit -> Bitio.Bits.t }

let send tr payload = tr.send payload
let recv tr = tr.recv ()
let make ~send ~recv = { send; recv }

let pipe () =
  let a_to_b = Queue.create () and b_to_a = Queue.create () in
  let take label q () =
    match Queue.take_opt q with
    | Some payload -> payload
    | None -> failwith ("Transport.pipe: recv on empty queue (" ^ label ^ ")")
  in
  ( { send = (fun p -> Queue.add p a_to_b); recv = take "a" b_to_a },
    { send = (fun p -> Queue.add p b_to_a); recv = take "b" a_to_b } )

let flip_payload payload bit = Bitio.Bits.flip payload bit

let tamper ?flip_bit ?drop_nth tr =
  let sent = ref 0 in
  {
    tr with
    send =
      (fun payload ->
        let index = !sent in
        incr sent;
        if Some index = drop_nth then ()
        else begin
          let payload =
            match flip_bit with
            | None -> payload
            | Some choose -> begin
                match choose index (Bitio.Bits.length payload) with
                | Some bit when bit >= 0 && bit < Bitio.Bits.length payload ->
                    flip_payload payload bit
                | Some _ | None -> payload
              end
          in
          tr.send payload
        end);
  }
