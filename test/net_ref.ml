(* List reference model of Network's delivery contract: each destination
   receives the messages due at or before [now], sorted by (due, send
   order); a multicast is p - 1 copies sharing one send position.
   Quadratic and obviously correct: the oracle the calendar ring
   (Msg_ring) and the broadcast stream (Bcast) are tested against. *)

type 'msg t = {
  p : int;
  mutable seq : int;
  mutable sent : int;
  mutable queued : (int * int * int * int * 'msg) list; (* due, seq, dst, src *)
}

let create ~p = { p; seq = 0; sent = 0; queued = [] }

let post t ~src ~due dsts msg =
  t.queued <- List.map (fun dst -> (due, t.seq, dst, src, msg)) dsts @ t.queued;
  t.seq <- t.seq + 1;
  t.sent <- t.sent + List.length dsts

let send t ~src ~dst ~due msg = post t ~src ~due [ dst ] msg

let broadcast t ~src ~due msg =
  post t ~src ~due (List.filter (( <> ) src) (List.init t.p Fun.id)) msg

let receive t ~dst ~now =
  let due, rest =
    List.partition (fun (d, _, to_, _, _) -> to_ = dst && d <= now) t.queued
  in
  t.queued <- rest;
  List.sort (fun (d, s, _, _, _) (d', s', _, _, _) -> compare (d, s) (d', s')) due
  |> List.map (fun (_, _, _, src, msg) -> (src, msg))

let pending t = List.length t.queued
