type request =
  | Access of Sral.Access.t
  | Send of string * Sral.Value.t
  | Recv of string * string
  | Signal of string
  | Wait of string

type status =
  | Ready of { thread : int; request : request; silent_steps : int }
  | All_blocked
  | Finished
  | Fault of string

type item = Exec of Sral.Ast.t | Join of int

type thread = {
  id : int;
  mutable stack : item list;
  mutable blocked : bool;
  mutable pending : request option;
}

type join = { mutable remaining : int; continuation : item list }

type t = {
  mutable threads : thread list;  (** live threads, in creation order *)
  env : (string, Sral.Value.t) Hashtbl.t;
  joins : (int, join) Hashtbl.t;
  mutable next_thread : int;
  mutable next_join : int;
  mutable rotation : int;  (** fair scheduling offset *)
  fuel : int;
}

let create ?(fuel = 100_000) program =
  {
    threads = [ { id = 0; stack = [ Exec program ]; blocked = false; pending = None } ];
    env = Hashtbl.create 8;
    joins = Hashtbl.create 4;
    next_thread = 1;
    next_join = 0;
    rotation = 0;
    fuel;
  }

let find_thread t id = List.find_opt (fun th -> th.id = id) t.threads

let request_of_action env (p : Sral.Ast.t) =
  match p with
  | Sral.Ast.Access a -> Access a
  | Sral.Ast.Send (chan, e) ->
      Send (chan, Sral.Expr.eval env e)
  | Sral.Ast.Recv (chan, x) -> Recv (chan, x)
  | Sral.Ast.Signal x -> Signal x
  | Sral.Ast.Wait x -> Wait x
  | Sral.Ast.Skip | Sral.Ast.Assign _ | Sral.Ast.Seq _ | Sral.Ast.If _
  | Sral.Ast.While _ | Sral.Ast.Par _ ->
      assert false

let env_of_tbl tbl =
  Hashtbl.fold (fun x v env -> Sral.Env.bind env x v) tbl Sral.Env.empty

(* Execute one silent step of a thread, or surface its action.
   Returns [`Silent] (made progress), [`Action request], [`Dead]
   (thread ended). *)
let exec_one t th =
  match th.stack with
  | [] -> `Dead
  | Join j :: rest -> (
      assert (rest = []);
      match Hashtbl.find_opt t.joins j with
      | None -> assert false
      | Some join ->
          join.remaining <- join.remaining - 1;
          if join.remaining = 0 then begin
            (* last branch continues with the continuation *)
            th.stack <- join.continuation;
            Hashtbl.remove t.joins j;
            `Silent
          end
          else begin
            th.stack <- [];
            `Dead
          end)
  | Exec p :: rest -> (
      match p with
      | Sral.Ast.Skip ->
          th.stack <- rest;
          `Silent
      | Sral.Ast.Assign (x, e) ->
          let v = Sral.Expr.eval (env_of_tbl t.env) e in
          Hashtbl.replace t.env x v;
          th.stack <- rest;
          `Silent
      | Sral.Ast.Seq (p1, p2) ->
          th.stack <- Exec p1 :: Exec p2 :: rest;
          `Silent
      | Sral.Ast.If (c, p1, p2) ->
          let branch =
            if Sral.Expr.eval_bool (env_of_tbl t.env) c then p1 else p2
          in
          th.stack <- Exec branch :: rest;
          `Silent
      | Sral.Ast.While (c, body) ->
          if Sral.Expr.eval_bool (env_of_tbl t.env) c then
            th.stack <- Exec body :: Exec p :: rest
          else th.stack <- rest;
          `Silent
      | Sral.Ast.Par (p1, p2) ->
          let j = t.next_join in
          t.next_join <- j + 1;
          Hashtbl.add t.joins j { remaining = 2; continuation = rest };
          th.stack <- [ Exec p1; Join j ];
          let sibling =
            {
              id = t.next_thread;
              stack = [ Exec p2; Join j ];
              blocked = false;
              pending = None;
            }
          in
          t.next_thread <- t.next_thread + 1;
          t.threads <- t.threads @ [ sibling ];
          `Silent
      | Sral.Ast.Access _ | Sral.Ast.Send _ | Sral.Ast.Recv _
      | Sral.Ast.Signal _ | Sral.Ast.Wait _ ->
          `Action (request_of_action (env_of_tbl t.env) p))

let prune t = t.threads <- List.filter (fun th -> th.stack <> []) t.threads

let step t =
  prune t;
  if t.threads = [] then Finished
  else begin
    (* already-surfaced pending request? re-surface the first *)
    match
      List.find_opt (fun th -> (not th.blocked) && th.pending <> None) t.threads
    with
    | Some th -> (
        match th.pending with
        | Some request -> Ready { thread = th.id; request; silent_steps = 0 }
        | None -> assert false)
    | None -> (
        let runnable () = List.filter (fun th -> not th.blocked) t.threads in
        match runnable () with
        | [] -> All_blocked
        | _ -> (
            let silent = ref 0 in
            let result = ref None in
            (try
               while !result = None do
                 prune t;
                 if t.threads = [] then result := Some Finished
                 else begin
                   let candidates = runnable () in
                   if candidates = [] then result := Some All_blocked
                   else begin
                     if !silent > t.fuel then
                       result :=
                         Some (Fault "divergence: silent-step fuel exhausted");
                     let n = List.length candidates in
                     let th = List.nth candidates (t.rotation mod n) in
                     t.rotation <- t.rotation + 1;
                     match !result with
                     | Some _ -> ()
                     | None -> (
                         match exec_one t th with
                         | `Silent -> incr silent
                         | `Dead -> ()
                         | `Action request ->
                             th.pending <- Some request;
                             result :=
                               Some
                                 (Ready
                                    {
                                      thread = th.id;
                                      request;
                                      silent_steps = !silent;
                                    }))
                   end
                 end
               done
             with Sral.Expr.Eval_error msg -> result := Some (Fault msg));
            match !result with Some s -> s | None -> assert false))
  end

let pop_action th =
  th.pending <- None;
  match th.stack with
  | Exec _ :: rest -> th.stack <- rest
  | _ -> assert false

let with_thread t ~thread f =
  match find_thread t thread with
  | Some th -> f th
  | None -> invalid_arg "Machine: unknown thread"

let complete t ~thread = with_thread t ~thread (fun th -> pop_action th)

let complete_recv t ~thread ~var v =
  with_thread t ~thread (fun th ->
      Hashtbl.replace t.env var v;
      pop_action th)

let block t ~thread = with_thread t ~thread (fun th -> th.blocked <- true)
let unblock t ~thread = with_thread t ~thread (fun th -> th.blocked <- false)
let skip_request t ~thread = with_thread t ~thread (fun th -> pop_action th)
let env_value t x = Hashtbl.find_opt t.env x
