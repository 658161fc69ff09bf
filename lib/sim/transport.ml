(* See transport.mli. *)

type 'msg t =
  | Ptp of 'msg Network.t
  | Shared of 'msg Channel.t

let receive_iter t ~dst ~now f =
  match t with
  | Ptp net -> Network.receive_iter net ~dst ~now f
  | Shared ch -> Channel.receive_iter ch ~dst ~now f

let pending = function
  | Ptp net -> Network.pending net
  | Shared ch -> Channel.pending ch

let sent = function
  | Ptp net -> Network.sent net
  | Shared ch -> Channel.sent ch

let silence t ~pid =
  match t with Ptp _ -> () | Shared ch -> Channel.silence ch ~pid

let stream_stats = function
  | Ptp net -> Some (Network.stream_stats net)
  | Shared _ -> None

let ptp_only name = function
  | Ptp net -> net
  | Shared _ -> invalid_arg ("Transport." ^ name ^ ": point-to-point only")

let chan_only name = function
  | Shared ch -> ch
  | Ptp _ -> invalid_arg ("Transport." ^ name ^ ": shared channel only")

let send t ~src ~dst ~due msg = Network.send (ptp_only "send" t) ~src ~dst ~due msg

let broadcast t ~src ~due msg =
  Network.broadcast (ptp_only "broadcast" t) ~src ~due msg

let send_replica t ~src ~dst ~due msg =
  Network.send_replica (ptp_only "send_replica" t) ~src ~dst ~due msg

let count_lost t = Network.count_lost (ptp_only "count_lost" t)

let deactivate t ~pid = Network.deactivate (ptp_only "deactivate" t) ~pid

let transmit t ~src ~release ?bcast ~unis () =
  Channel.transmit (chan_only "transmit" t) ~src ~release ?bcast ~unis ()

let resolve t ~now ?arbitrate () =
  Channel.resolve (chan_only "resolve" t) ~now ?arbitrate ()
