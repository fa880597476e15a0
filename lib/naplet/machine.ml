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

(* both branches of a [||] end on the same [Join]; the last one to
   reach it carries on with the continuation *)
type item = Exec of Sral.Ast.t | Join of join
and join = { mutable remaining : int; continuation : item list }

type thread = {
  id : int;
  mutable stack : item list;
  mutable blocked : bool;
  mutable pending : request option;
}

type t = {
  mutable threads : thread list;  (** live threads, in creation order *)
  mutable env : Sral.Env.t;
  mutable next_thread : int;
  mutable rotation : int;  (** fair scheduling offset *)
  fuel : int;
}

let create ?(fuel = 100_000) program =
  {
    threads = [ { id = 0; stack = [ Exec program ]; blocked = false; pending = None } ];
    env = Sral.Env.empty;
    next_thread = 1;
    rotation = 0;
    fuel;
  }

let rec find_thread id = function
  | [] -> invalid_arg "Machine: unknown thread"
  | th :: rest -> if th.id = id then th else find_thread id rest

let request_of_action t (p : Sral.Ast.t) =
  match p with
  | Sral.Ast.Access a -> Access a
  | Sral.Ast.Send (chan, e) -> Send (chan, Sral.Expr.eval t.env e)
  | Sral.Ast.Recv (chan, x) -> Recv (chan, x)
  | Sral.Ast.Signal x -> Signal x
  | Sral.Ast.Wait x -> Wait x
  | Sral.Ast.Skip | Sral.Ast.Assign _ | Sral.Ast.Seq _ | Sral.Ast.If _
  | Sral.Ast.While _ | Sral.Ast.Par _ ->
      assert false

(* Execute one silent step of a thread, or surface its action.
   Returns [`Silent] (made progress), [`Action request], [`Dead]
   (thread ended). *)
let exec_one t th =
  match th.stack with
  | [] -> `Dead
  | Join join :: rest ->
      assert (rest = []);
      join.remaining <- join.remaining - 1;
      if join.remaining = 0 then begin
        th.stack <- join.continuation;
        `Silent
      end
      else begin
        th.stack <- [];
        `Dead
      end
  | Exec p :: rest -> (
      match p with
      | Sral.Ast.Skip ->
          th.stack <- rest;
          `Silent
      | Sral.Ast.Assign (x, e) ->
          t.env <- Sral.Env.bind t.env x (Sral.Expr.eval t.env e);
          th.stack <- rest;
          `Silent
      | Sral.Ast.Seq (p1, p2) ->
          th.stack <- Exec p1 :: Exec p2 :: rest;
          `Silent
      | Sral.Ast.If (c, p1, p2) ->
          let branch = if Sral.Expr.eval_bool t.env c then p1 else p2 in
          th.stack <- Exec branch :: rest;
          `Silent
      | Sral.Ast.While (c, body) ->
          if Sral.Expr.eval_bool t.env c then
            th.stack <- Exec body :: Exec p :: rest
          else th.stack <- rest;
          `Silent
      | Sral.Ast.Par (p1, p2) ->
          let j = Join { remaining = 2; continuation = rest } in
          th.stack <- [ Exec p1; j ];
          let sibling =
            {
              id = t.next_thread;
              stack = [ Exec p2; j ];
              blocked = false;
              pending = None;
            }
          in
          t.next_thread <- t.next_thread + 1;
          t.threads <- t.threads @ [ sibling ];
          `Silent
      | Sral.Ast.Access _ | Sral.Ast.Send _ | Sral.Ast.Recv _
      | Sral.Ast.Signal _ | Sral.Ast.Wait _ ->
          `Action (request_of_action t p))

let dead th = th.stack = []
let runnable th = not th.blocked

(* The thread list is rebuilt only when a thread has died. *)
let prune t =
  if List.exists dead t.threads then
    t.threads <- List.filter (fun th -> not (dead th)) t.threads

let rec count_runnable n = function
  | [] -> n
  | th :: rest -> count_runnable (if runnable th then n + 1 else n) rest

(* the [k]-th runnable thread, counting from 0 *)
let rec nth_runnable k = function
  | [] -> assert false
  | th :: rest ->
      if not (runnable th) then nth_runnable k rest
      else if k = 0 then th
      else nth_runnable (k - 1) rest

(* Run silent steps, rotating over the runnable threads, until one
   surfaces an action; [silent] counts the steps taken so far. *)
let rec run t ~silent =
  prune t;
  if t.threads = [] then Finished
  else
    let n = count_runnable 0 t.threads in
    if n = 0 then All_blocked
    else begin
      let th = nth_runnable (t.rotation mod n) t.threads in
      t.rotation <- t.rotation + 1;
      if silent > t.fuel then Fault "divergence: silent-step fuel exhausted"
      else
        match exec_one t th with
        | `Silent -> run t ~silent:(silent + 1)
        | `Dead -> run t ~silent
        | `Action request ->
            th.pending <- Some request;
            Ready { thread = th.id; request; silent_steps = silent }
    end

(* an already-surfaced pending request is re-surfaced first *)
let rec resurface t = function
  | [] -> ( try run t ~silent:0 with Sral.Expr.Eval_error msg -> Fault msg)
  | th :: rest -> (
      match th.pending with
      | Some request when runnable th ->
          Ready { thread = th.id; request; silent_steps = 0 }
      | _ -> resurface t rest)

let step t =
  prune t;
  resurface t t.threads

let pop_action th =
  th.pending <- None;
  match th.stack with
  | Exec _ :: rest -> th.stack <- rest
  | _ -> assert false

let complete t ~thread = pop_action (find_thread thread t.threads)

let complete_recv t ~thread ~var v =
  let th = find_thread thread t.threads in
  t.env <- Sral.Env.bind t.env var v;
  pop_action th

let block t ~thread = (find_thread thread t.threads).blocked <- true
let unblock t ~thread = (find_thread thread t.threads).blocked <- false
let skip_request t ~thread = pop_action (find_thread thread t.threads)
let env_value t x = Sral.Env.find t.env x
