module Q = Temporal.Q

type t = {
  object_id : string;
  proofs : Srac.Proof.store;
  mutable visits : (string * Q.t) list;  (* reverse order *)
  mutable residuals : Residual.store option;
      (* the one per-binding table, made by the first [slot] *)
  mutable clock : Q.t;
  mutable history_epoch : int;
  mutable companions : t list;  (* as of [companions_stamp] *)
  mutable companions_stamp : int;  (* team-membership version; -1 = never *)
}

let create ~object_id =
  {
    object_id;
    proofs = Srac.Proof.create ();
    visits = [];
    residuals = None;
    clock = Q.zero;
    history_epoch = 0;
    companions = [];
    companions_stamp = -1;
  }

let object_id m = m.object_id
let proofs m = m.proofs
let history_epoch m = m.history_epoch

let advance m time =
  if Q.lt time m.clock then
    invalid_arg
      (Format.asprintf "Monitor: time went backwards (%a < %a)" Q.pp time Q.pp
         m.clock)
  else m.clock <- time

let record_arrival m ~server ~time =
  advance m time;
  m.visits <- (server, time) :: m.visits

let arrivals m = List.rev_map snd m.visits
let arrived m = m.visits <> []
let itinerary m = List.rev m.visits
let current_server m = match m.visits with [] -> None | (s, _) :: _ -> Some s

let record_access m a ~time =
  advance m time;
  m.history_epoch <- m.history_epoch + 1;
  Srac.Proof.record m.proofs a ~time

let performed m = Srac.Proof.performed_trace m.proofs

let slot m ~session b =
  let store =
    match m.residuals with
    | Some store -> store
    | None ->
        let store = Residual.Binding_tbl.create 8 in
        m.residuals <- Some store;
        store
  in
  match Residual.Binding_tbl.find store b with
  | slot -> slot
  | exception Not_found ->
      let slot = Residual.slot ~session in
      Residual.Binding_tbl.add store b slot;
      slot

let set_active m (slot : Residual.slot) ~time state =
  advance m time;
  if not (Bool.equal (Residual.active_now slot) state) then
    slot.activation <- (time, state) :: slot.activation

(* what [residuals] shows for a monitor with no slot yet; only [slot]
   adds to a store, and never to this one *)
let no_slots : Residual.store = Residual.Binding_tbl.create 1

let residuals m = Option.value m.residuals ~default:no_slots

let activation_fn m b =
  match Residual.Binding_tbl.find_opt (residuals m) b with
  | Some slot -> Residual.step_fn slot
  | None -> Temporal.Step_fn.const false

let companions m = m.companions
let companions_stamp m = m.companions_stamp

let stamp_companions m ~version companions =
  m.companions <- companions;
  m.companions_stamp <- version

let now m = m.clock

let pp ppf m =
  Format.fprintf ppf "@[<v>monitor %s (clock %a)@," m.object_id Q.pp m.clock;
  List.iter
    (fun (s, t) -> Format.fprintf ppf "  arrived %s at %a@," s Q.pp t)
    (itinerary m);
  Format.fprintf ppf "  performed %a@," Sral.Trace.pp (performed m);
  Format.fprintf ppf "@]"
