module Symbol = Automata.Symbol
module Dfa = Automata.Dfa

type modality = Exists | Forall

type outcome = { holds : bool; witness : Sral.Trace.t option }

exception Over_budget = Dfa.Over_budget

let check ?(proofs = Proof.always) ?(modality = Exists) ?budget program
    formula =
  (match budget with
  | Some b when Automata.Of_program.nfa_states program > b ->
      raise (Over_budget b)
  | _ -> ());
  let table = Compile.alphabet_of ~program formula in
  let alphabet = Symbol.alphabet table in
  let program_dfa =
    Automata.Of_program.dfa ?max_states:budget ~table ~alphabet program
  in
  let constraint_dfa = Compile.dfa ~table ~proofs formula in
  let decode word = List.map (Symbol.access table) word in
  match modality with
  | Exists ->
      let satisfying = Dfa.inter program_dfa constraint_dfa in
      let witness = Dfa.shortest_witness satisfying in
      { holds = witness <> None; witness = Option.map decode witness }
  | Forall ->
      let violating = Dfa.diff program_dfa constraint_dfa in
      let witness = Dfa.shortest_witness violating in
      { holds = witness = None; witness = Option.map decode witness }

type stats = {
  alphabet_size : int;
  program_states : int;
  constraint_states : int;
}

let instrument ?(proofs = Proof.always) program formula =
  let table = Compile.alphabet_of ~program formula in
  let alphabet = Symbol.alphabet table in
  let program_dfa = Automata.Of_program.dfa ~table ~alphabet program in
  let constraint_dfa = Compile.dfa ~table ~proofs formula in
  {
    alphabet_size = List.length alphabet;
    program_states = Dfa.num_states program_dfa;
    constraint_states = Dfa.num_states constraint_dfa;
  }

let check_bool ?proofs ?modality program formula =
  (check ?proofs ?modality program formula).holds

let prefix_feasible ?(universe = []) ~performed formula =
  let table =
    Symbol.of_accesses (Formula.accesses formula @ performed @ universe)
  in
  let dfa = Compile.dfa ~table ~proofs:Proof.always formula in
  let word = List.map (Symbol.intern table) performed in
  match Dfa.run dfa word with
  | None -> false
  | Some q -> Dfa.final_reachable_from dfa q
