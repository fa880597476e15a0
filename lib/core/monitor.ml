module Q = Temporal.Q

type t = {
  object_id : string;
  proofs : Srac.Proof.store;
  mutable visits : (string * Q.t) list;  (* reverse order *)
  activations : Residual.cell Residual.Binding_tbl.t;
      (* per binding, physically — as the residual slots are keyed *)
  residuals : Residual.store;
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
    activations = Residual.Binding_tbl.create 8;
    residuals = Residual.create ();
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

let activation m b =
  match Residual.Binding_tbl.find_opt m.activations b with
  | Some c -> c
  | None ->
      let c = ref [] in
      Residual.Binding_tbl.add m.activations b c;
      c

let set_active m (c : Residual.cell) ~time state =
  advance m time;
  if not (Bool.equal (Residual.active_now c) state) then
    c := (time, state) :: !c

let activation_fn m b = Residual.step_fn (activation m b)

let residuals m = m.residuals

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
