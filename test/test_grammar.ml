(* Grammar analyses, LALR construction, the context-aware scanner/parser
   loop, and the modular determinism analysis — on small textbook grammars
   before the full CMINUS spec exercises them at scale. *)

open Grammar
module IntSet = Set.Make (Int)

(* --- a classic expression grammar ------------------------------------- *)

let owner = "host"

let expr_host : Cfg.t =
  {
    name = "host";
    terminals =
      [
        Cfg.terminal ~owner "NUM" "[0-9]+";
        Cfg.terminal ~owner "ID" "[a-zA-Z_][a-zA-Z0-9_]*";
        Cfg.keyword ~owner "PLUS" "+";
        Cfg.keyword ~owner "TIMES" "*";
        Cfg.keyword ~owner "LP" "(";
        Cfg.keyword ~owner "RP" ")";
        Cfg.keyword ~owner "COMMA" ",";
      ];
    layout = [ Cfg.terminal ~owner "WS" "[ \\t\\n\\r]+" ];
    productions =
      [
        Cfg.production ~owner ~name:"e_plus" "E" [ Cfg.N "E"; Cfg.T "PLUS"; Cfg.N "T" ];
        Cfg.production ~owner ~name:"e_t" "E" [ Cfg.N "T" ];
        Cfg.production ~owner ~name:"t_times" "T" [ Cfg.N "T"; Cfg.T "TIMES"; Cfg.N "F" ];
        Cfg.production ~owner ~name:"t_f" "T" [ Cfg.N "F" ];
        Cfg.production ~owner ~name:"f_paren" "F" [ Cfg.T "LP"; Cfg.N "E"; Cfg.T "RP" ];
        Cfg.production ~owner ~name:"f_num" "F" [ Cfg.T "NUM" ];
        Cfg.production ~owner ~name:"f_id" "F" [ Cfg.T "ID" ];
      ];
    start = Some "E";
  }

let test_first_follow () =
  let g = Analysis.intern expr_host in
  let first_names nt =
    let id = Hashtbl.find g.Analysis.nt_id nt in
    Analysis.IntSet.elements g.Analysis.first.(id)
    |> List.map (fun t -> g.Analysis.term_names.(t))
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "FIRST(E)" [ "ID"; "LP"; "NUM" ] (first_names "E");
  Alcotest.(check (list string)) "FIRST(F)" [ "ID"; "LP"; "NUM" ] (first_names "F");
  let follow = Analysis.follow g in
  let follow_names nt =
    let id = Hashtbl.find g.Analysis.nt_id nt in
    Analysis.IntSet.elements follow.(id)
    |> List.map (fun t -> g.Analysis.term_names.(t))
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "FOLLOW(E)" [ "$EOF"; "PLUS"; "RP" ] (follow_names "E");
  Alcotest.(check (list string))
    "FOLLOW(F)" [ "$EOF"; "PLUS"; "RP"; "TIMES" ] (follow_names "F")

let test_expr_lalr () =
  let tbl = Lalr.build expr_host in
  Alcotest.(check bool) "expression grammar is LALR(1)" true (Lalr.is_lalr1 tbl);
  (* The textbook grammar (single `id` terminal) has 12 states; ours adds
     one more completed-item state because NUM and ID are distinct. *)
  Alcotest.(check int) "state count" 13 tbl.Lalr.n_states

let parse_expr src =
  let tbl = Lalr.build expr_host in
  let p = Parser.Driver.create tbl in
  Parser.Driver.parse p src

let rec sexp = function
  | Parser.Tree.Leaf tok -> tok.Lexer.Token.lexeme
  | Parser.Tree.Node (p, kids, _) ->
      "(" ^ p.Cfg.p_name ^ " " ^ String.concat " " (List.map sexp kids) ^ ")"

let test_parse_assoc_prec () =
  match parse_expr "1 + 2 * 3" with
  | Error e -> Alcotest.failf "parse failed: %a" Parser.Driver.pp_error e
  | Ok tree ->
      Alcotest.(check string)
        "precedence: * binds tighter"
        "(e_plus (e_t (t_f (f_num 1))) + (t_times (t_f (f_num 2)) * (f_num 3)))"
        (sexp tree)

let test_parse_paren () =
  match parse_expr "(1 + x) * 2" with
  | Error e -> Alcotest.failf "parse failed: %a" Parser.Driver.pp_error e
  | Ok tree ->
      Alcotest.(check string) "parenthesised"
        "(e_t (t_times (t_f (f_paren ( (e_plus (e_t (t_f (f_num 1))) + (t_f (f_id x))) ))) * (f_num 2)))"
        (sexp tree)

let test_parse_error_reporting () =
  match parse_expr "1 + * 2" with
  | Ok _ -> Alcotest.fail "expected syntax error"
  | Error e ->
      Alcotest.(check bool)
        "expected-set mentions operands" true
        (List.mem "NUM" e.Parser.Driver.expected
        && List.mem "LP" e.Parser.Driver.expected
        && not (List.mem "TIMES" e.Parser.Driver.expected))

let test_parse_eof_error () =
  match parse_expr "1 +" with
  | Ok _ -> Alcotest.fail "expected syntax error at EOF"
  | Error e ->
      Alcotest.(check bool) "mentions end of input" true
        (String.length e.Parser.Driver.message > 0)

(* --- dangling else: shift/reduce conflict must be detected -------------- *)

let dangling_else : Cfg.t =
  {
    name = "dangling";
    terminals =
      [
        Cfg.keyword ~owner "IF" "if";
        Cfg.keyword ~owner "THEN" "then";
        Cfg.keyword ~owner "ELSE" "else";
        Cfg.terminal ~owner "ID" "[a-z]+";
      ];
    layout = [ Cfg.terminal ~owner "WS" "[ \\t\\n]+" ];
    productions =
      [
        Cfg.production ~owner ~name:"s_ifthen" "S" [ Cfg.T "IF"; Cfg.N "S"; Cfg.T "THEN"; Cfg.N "S" ];
        Cfg.production ~owner ~name:"s_ifelse" "S"
          [ Cfg.T "IF"; Cfg.N "S"; Cfg.T "THEN"; Cfg.N "S"; Cfg.T "ELSE"; Cfg.N "S" ];
        Cfg.production ~owner ~name:"s_id" "S" [ Cfg.T "ID" ];
      ];
    start = Some "S";
  }

let test_dangling_else_conflict () =
  let tbl = Lalr.build dangling_else in
  Alcotest.(check bool) "has conflicts" false (Lalr.is_lalr1 tbl);
  let c = List.hd tbl.Lalr.conflicts in
  Alcotest.(check string) "on ELSE" "ELSE" tbl.Lalr.g.Analysis.term_names.(c.Lalr.c_term)

(* --- LALR-but-not-SLR grammar ------------------------------------------ *)
(* S ::= L = R | R ;  L ::= * R | id ;  R ::= L
   SLR has a shift/reduce conflict on '='; LALR(1) does not. *)

let lalr_not_slr : Cfg.t =
  {
    name = "lalr_not_slr";
    terminals =
      [
        Cfg.keyword ~owner "EQ" "=";
        Cfg.keyword ~owner "STAR" "*";
        Cfg.terminal ~owner "IDT" "[a-z]+";
      ];
    layout = [ Cfg.terminal ~owner "WS" "[ ]+" ];
    productions =
      [
        Cfg.production ~owner ~name:"s_assign" "S" [ Cfg.N "L"; Cfg.T "EQ"; Cfg.N "R" ];
        Cfg.production ~owner ~name:"s_r" "S" [ Cfg.N "R" ];
        Cfg.production ~owner ~name:"l_star" "L" [ Cfg.T "STAR"; Cfg.N "R" ];
        Cfg.production ~owner ~name:"l_id" "L" [ Cfg.T "IDT" ];
        Cfg.production ~owner ~name:"r_l" "R" [ Cfg.N "L" ];
      ];
    start = Some "S";
  }

let test_lalr_not_slr () =
  let tbl = Lalr.build lalr_not_slr in
  Alcotest.(check bool) "LALR(1) succeeds where SLR fails" true (Lalr.is_lalr1 tbl);
  let p = Parser.Driver.create tbl in
  (match Parser.Driver.parse p "* x = y" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "parse failed: %a" Parser.Driver.pp_error e);
  match Parser.Driver.parse p "x = = y" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

(* --- epsilon productions ------------------------------------------------ *)

let eps_grammar : Cfg.t =
  {
    name = "eps";
    terminals =
      [ Cfg.keyword ~owner "A" "a"; Cfg.keyword ~owner "B" "b" ];
    layout = [ Cfg.terminal ~owner "WS" "[ ]+" ];
    productions =
      [
        Cfg.production ~owner ~name:"s" "S" [ Cfg.N "OptA"; Cfg.T "B" ];
        Cfg.production ~owner ~name:"opt_some" "OptA" [ Cfg.T "A" ];
        Cfg.production ~owner ~name:"opt_none" "OptA" [];
      ];
    start = Some "S";
  }

let test_epsilon () =
  let tbl = Lalr.build eps_grammar in
  Alcotest.(check bool) "eps grammar LALR" true (Lalr.is_lalr1 tbl);
  let p = Parser.Driver.create tbl in
  List.iter
    (fun (src, ok) ->
      match (Parser.Driver.parse p src, ok) with
      | Ok _, true | Error _, false -> ()
      | Ok _, false -> Alcotest.failf "%S should not parse" src
      | Error e, true ->
          Alcotest.failf "%S should parse: %a" src Parser.Driver.pp_error e)
    [ ("a b", true); ("b", true); ("a", false); ("a a b", false) ]

(* --- context-aware scanning -------------------------------------------- *)
(* An extension adds keyword "end", valid only inside brackets. Outside,
   "end" must scan as an identifier — impossible for a context-free scanner
   when both terminals are globally enabled. *)

let ctx_host : Cfg.t =
  {
    name = "host";
    terminals =
      [
        Cfg.terminal ~owner "ID" "[a-zA-Z_][a-zA-Z0-9_]*";
        Cfg.keyword ~owner "LB" "[";
        Cfg.keyword ~owner "RB" "]";
      ];
    layout = [ Cfg.terminal ~owner "WS" "[ ]+" ];
    productions =
      [
        Cfg.production ~owner ~name:"p_id" "P" [ Cfg.T "ID" ];
        Cfg.production ~owner ~name:"p_idx" "P" [ Cfg.T "ID"; Cfg.T "LB"; Cfg.N "IX"; Cfg.T "RB" ];
        Cfg.production ~owner ~name:"ix_id" "IX" [ Cfg.T "ID" ];
      ];
    start = Some "P";
  }

let ctx_ext : Cfg.t =
  {
    name = "endkw";
    terminals = [ Cfg.keyword ~owner:"endkw" "KW_end" "end" ];
    layout = [];
    productions =
      [ Cfg.production ~owner:"endkw" ~name:"ix_end" "IX" [ Cfg.T "KW_end" ] ];
    start = None;
  }

let test_context_aware_end () =
  let composed = Cfg.compose ctx_host [ ctx_ext ] in
  let tbl = Lalr.build composed in
  Alcotest.(check bool) "composed LALR" true (Lalr.is_lalr1 tbl);
  let p = Parser.Driver.create tbl in
  (* "end" as a plain identifier at top level. *)
  (match Parser.Driver.parse p "end" with
  | Ok t ->
      Alcotest.(check string) "end is an ID outside brackets" "p_id"
        (Parser.Tree.prod_name t)
  | Error e -> Alcotest.failf "parse failed: %a" Parser.Driver.pp_error e);
  (* "end" as the keyword inside brackets (keyword priority beats ID). *)
  match Parser.Driver.parse p "a[end]" with
  | Ok t -> (
      match t with
      | Parser.Tree.Node (_, [ _; _; ix; _ ], _) ->
          Alcotest.(check string) "keyword inside brackets" "ix_end"
            (Parser.Tree.prod_name ix)
      | _ -> Alcotest.fail "unexpected tree shape")
  | Error e -> Alcotest.failf "parse failed: %a" Parser.Driver.pp_error e

(* --- modular determinism analysis --------------------------------------- *)

(* A well-marked extension: adds `sum ( E )` to F via fresh keyword "sum". *)
let good_ext : Cfg.t =
  {
    name = "sumext";
    terminals = [ Cfg.keyword ~owner:"sumext" "KW_sum" "sum" ];
    layout = [];
    productions =
      [
        Cfg.production ~owner:"sumext" ~name:"f_sum" "F"
          [ Cfg.T "KW_sum"; Cfg.T "LP"; Cfg.N "E"; Cfg.T "RP" ];
      ];
    start = None;
  }

(* Tuple-style extension: initial symbol is the host's "(" and every other
   token is the host's too, violating the marking-terminal condition exactly
   as the paper's tuples extension does. *)
let tuple_like_ext : Cfg.t =
  {
    name = "tuples";
    terminals = [];
    layout = [];
    productions =
      [
        Cfg.production ~owner:"tuples" ~name:"f_tuple" "F"
          [ Cfg.T "LP"; Cfg.N "E"; Cfg.T "COMMA"; Cfg.N "E"; Cfg.T "RP" ];
      ];
    start = None;
  }

let test_determinism_good () =
  let r = Determinism.check expr_host good_ext in
  if not r.Determinism.passes then
    Alcotest.failf "expected pass: %a" Determinism.pp_report r

let test_determinism_tuples_fail () =
  let r = Determinism.check expr_host tuple_like_ext in
  Alcotest.(check bool) "tuples-style extension fails" false r.Determinism.passes;
  Alcotest.(check bool) "marking-terminal violation reported" true
    (List.exists
       (fun v -> v.Determinism.rule = "marking-terminal")
       r.Determinism.violations)

(* Second well-marked extension, to exercise the composition theorem. *)
let good_ext2 : Cfg.t =
  {
    name = "maxext";
    terminals = [ Cfg.keyword ~owner:"maxext" "KW_max" "max" ];
    layout = [];
    productions =
      [
        Cfg.production ~owner:"maxext" ~name:"f_max" "F"
          [ Cfg.T "KW_max"; Cfg.T "LP"; Cfg.N "E"; Cfg.T "COMMA"; Cfg.N "E"; Cfg.T "RP" ];
      ];
    start = None;
  }

let test_composition_theorem () =
  (* Every subset of individually-passing extensions composes LALR(1). *)
  let exts = [ good_ext; good_ext2 ] in
  List.iter
    (fun e ->
      let r = Determinism.check expr_host e in
      if not r.Determinism.passes then
        Alcotest.failf "%s should pass: %a" e.Cfg.name Determinism.pp_report r)
    exts;
  let subsets = [ []; [ good_ext ]; [ good_ext2 ]; [ good_ext; good_ext2 ] ] in
  List.iter
    (fun subset ->
      let tbl = Lalr.build (Cfg.compose expr_host subset) in
      Alcotest.(check bool)
        (Printf.sprintf "subset of size %d composes" (List.length subset))
        true (Lalr.is_lalr1 tbl))
    subsets;
  (* And the composed language actually parses programs using both. *)
  let tbl = Lalr.build (Cfg.compose expr_host exts) in
  let p = Parser.Driver.create tbl in
  match Parser.Driver.parse p "sum(1 + max(2, x)) * 3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "composed parse failed: %a" Parser.Driver.pp_error e

let test_check_all () =
  let reports, composed =
    Determinism.check_all expr_host [ good_ext; good_ext2 ]
  in
  Alcotest.(check int) "two reports" 2 (List.length reports);
  Alcotest.(check bool) "all pass" true
    (List.for_all (fun r -> r.Determinism.passes) reports);
  match composed with
  | Ok tbl -> Alcotest.(check bool) "composition ok" true (Lalr.is_lalr1 tbl)
  | Error msg -> Alcotest.failf "composition failed: %s" msg

let test_compose_errors () =
  (* Duplicate production names are rejected at composition. *)
  let dup = { good_ext with Cfg.name = "dup" } in
  (match Cfg.compose expr_host [ good_ext; dup ] with
  | exception Cfg.Compose_error _ -> ()
  | _ -> Alcotest.fail "expected Compose_error for duplicate production");
  (* Same terminal name with different regexes is rejected. *)
  let clash =
    {
      (Cfg.empty "clash") with
      Cfg.terminals = [ Cfg.terminal ~owner:"clash" "NUM" "[0-9a-f]+" ];
      productions =
        [ Cfg.production ~owner:"clash" ~name:"f_hex" "F" [ Cfg.T "NUM" ] ];
    }
  in
  match Cfg.compose expr_host [ clash ] with
  | exception Cfg.Compose_error _ -> ()
  | _ -> Alcotest.fail "expected Compose_error for terminal regex clash"

(* --- LALR(1) = canonical LR(1) merged by core ----------------------------- *)
(* The reference is the textbook definition: build the canonical LR(1)
   collection, merge states with equal kernel cores, and read off each
   merged state's actions.  [Lalr.build] must agree on random grammars
   (epsilon rules, nullable tails, left recursion and conflicts
   included): the same set of cores, and per core and terminal the same
   set of actions, shift targets named by their cores. *)

module ItemSet = Set.Make (struct
  type t = int * int * int (* production, dot, lookahead terminal *)

  let compare = compare
end)

let lr1_reference (cfg : Cfg.t) =
  let g = Analysis.intern cfg in
  let rhs pi = g.Analysis.prods.(pi).Analysis.irhs in
  let closure items =
    let rec go acc = function
      | [] -> acc
      | ((pi, dot, la) as it) :: rest when not (ItemSet.mem it acc) ->
          let acc = ItemSet.add it acc in
          let r = rhs pi in
          if dot < Array.length r && not (Analysis.is_term g r.(dot)) then
            let las =
              Analysis.first_of_seq g ~from:(dot + 1) r (IntSet.singleton la)
            in
            let fresh =
              List.concat_map
                (fun p -> List.map (fun t -> (p, 0, t)) (IntSet.elements las))
                g.Analysis.prods_of.(Analysis.nt_of_code g r.(dot))
            in
            go acc (fresh @ rest)
          else go acc rest
      | _ :: rest -> go acc rest
    in
    go ItemSet.empty items
  in
  let goto state code =
    ItemSet.fold
      (fun (pi, dot, la) acc ->
        let r = rhs pi in
        if dot < Array.length r && r.(dot) = code then (pi, dot + 1, la) :: acc
        else acc)
      state []
    |> closure
  in
  let core state =
    ItemSet.fold
      (fun (pi, dot, _) acc ->
        if dot > 0 || pi = 0 then Lalr.item pi dot :: acc else acc)
      state []
    |> List.sort_uniq Int.compare
  in
  let n_codes = g.Analysis.n_terms + g.Analysis.n_nts in
  let seen = Hashtbl.create 64 and actions = Hashtbl.create 64 in
  let add_action c t a =
    let prev = Option.value ~default:[] (Hashtbl.find_opt actions (c, t)) in
    if not (List.mem a prev) then Hashtbl.replace actions (c, t) (a :: prev)
  in
  let rec visit state =
    let key = ItemSet.elements state in
    if not (Hashtbl.mem seen key) then begin
      let c = core state in
      Hashtbl.add seen key c;
      ItemSet.iter
        (fun (pi, dot, la) ->
          if dot = Array.length (rhs pi) then
            if pi = 0 then add_action c la `Accept
            else add_action c la (`Reduce pi))
        state;
      for code = 0 to n_codes - 1 do
        let tgt = goto state code in
        if not (ItemSet.is_empty tgt) then begin
          if Analysis.is_term g code then add_action c code (`Shift (core tgt));
          visit tgt
        end
      done
    end
  in
  visit (closure [ (0, 0, g.Analysis.eof) ]);
  let cores =
    Hashtbl.fold (fun _ c acc -> c :: acc) seen []
    |> List.sort_uniq compare
  in
  let table =
    Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) actions []
  in
  (cores, List.sort compare table)

let lalr_as_reference (t : Lalr.t) =
  let core s = List.sort Int.compare (Array.to_list t.Lalr.kernels.(s)) in
  let conv = function
    | Lalr.Shift s -> Some (`Shift (core s))
    | Lalr.Reduce p -> Some (`Reduce p)
    | Lalr.Accept -> Some `Accept
    | Lalr.Error -> None
  in
  let table = ref [] in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun term a ->
          let clashing =
            List.concat_map
              (fun c ->
                if c.Lalr.c_state = s && c.Lalr.c_term = term then
                  c.Lalr.c_actions
                else [])
              t.Lalr.conflicts
          in
          match
            List.sort_uniq compare (List.filter_map conv (a :: clashing))
          with
          | [] -> ()
          | acts -> table := ((core s, term), acts) :: !table)
        row)
    t.Lalr.action;
  ( List.sort_uniq compare (List.init t.Lalr.n_states core),
    List.sort compare !table )

(* Four nonterminals over three terminals.  Each nonterminal's first
   rule derives a terminal string (maybe empty), so every nonterminal is
   productive: an LR(0) item whose lookahead set is empty has no
   canonical LR(1) counterpart. *)
let gen_grammar =
  QCheck.Gen.(
    let term = map (fun i -> `T i) (0 -- 2) in
    let sym = oneof [ term; map (fun i -> `N i) (0 -- 3) ] in
    let prods nt =
      let* base = list_size (0 -- 2) term in
      let* more = list_size (0 -- 2) (list_size (0 -- 3) sym) in
      return (List.map (fun r -> (nt, r)) (base :: more))
    in
    map List.concat (flatten_l (List.init 4 prods)))

let cfg_of_prods prods : Cfg.t =
  let t i = Printf.sprintf "T%d" i and n i = Printf.sprintf "N%d" i in
  {
    name = "random";
    terminals =
      List.init 3 (fun i ->
          Cfg.keyword ~owner (t i) (String.make 1 (Char.chr (97 + i))));
    layout = [];
    productions =
      List.mapi
        (fun k (lhs, r) ->
          Cfg.production ~owner ~name:(Printf.sprintf "p%d" k) (n lhs)
            (List.map (function `T i -> Cfg.T (t i) | `N i -> Cfg.N (n i)) r))
        prods;
    start = Some "N0";
  }

let show_prods prods =
  let sym = function
    | `T i -> Printf.sprintf "T%d" i
    | `N i -> Printf.sprintf "N%d" i
  in
  String.concat "; "
    (List.map
       (fun (lhs, r) ->
         Printf.sprintf "N%d ::= %s" lhs (String.concat " " (List.map sym r)))
       prods)

let prop_lalr_matches_reference =
  QCheck.Test.make ~name:"LALR(1) tables = merged canonical LR(1)" ~count:300
    (QCheck.make ~print:show_prods gen_grammar)
    (fun prods ->
      let cfg = cfg_of_prods prods in
      lalr_as_reference (Lalr.build cfg) = lr1_reference cfg)

(* --- pinned tables of the shipped grammars ------------------------------ *)
(* Digests of a canonical dump of each shipped composition's LALR(1) table
   and of each shipped extension's rendered [isComposable] report.  They
   were recorded from the Dragon-book construction (per-item LR(1)
   closures, algorithm 4.63); the closure-table construction must
   reproduce the tables and reports exactly. *)

let dump_table (t : Lalr.t) =
  let g = t.Lalr.g in
  let b = Buffer.create 65536 in
  Printf.bprintf b "states %d\n" t.Lalr.n_states;
  for s = 0 to t.Lalr.n_states - 1 do
    Printf.bprintf b "state %d\n" s;
    Array.iteri
      (fun term a ->
        if a <> Lalr.Error then
          Printf.bprintf b " %s: %s\n" g.Analysis.term_names.(term)
            (Fmt.str "%a" (Lalr.pp_action g) a))
      t.Lalr.action.(s);
    Array.iteri
      (fun nt tgt ->
        if tgt >= 0 then
          Printf.bprintf b " <%s> -> %d\n" g.Analysis.nt_names.(nt) tgt)
      t.Lalr.goto.(s);
    Printf.bprintf b " valid: %s\n"
      (Lalr.IntSet.elements t.Lalr.valid_terms.(s)
      |> List.map (fun i -> g.Analysis.term_names.(i))
      |> List.sort String.compare |> String.concat " ")
  done;
  List.iter
    (fun c -> Printf.bprintf b "conflict %s\n" (Fmt.str "%a" (Lalr.pp_conflict g) c))
    t.Lalr.conflicts;
  Buffer.contents b

(* Every scanner DFA of the full composition: terminals in id order, then
   the layout terminals. *)
let dump_scanner (t : Lalr.t) =
  let sc = Lexer.Scanner.create t.Lalr.g in
  let b = Buffer.create 65536 in
  List.iter
    (fun (d : Regexe.Dfa.t) ->
      Printf.bprintf b "dfa start %d\n" d.Regexe.Dfa.start;
      Array.iteri
        (fun s row ->
          Printf.bprintf b "%d%s:" s
            (if d.Regexe.Dfa.accepting.(s) then "*" else "");
          Array.iteri
            (fun c tgt -> if tgt >= 0 then Printf.bprintf b " %d>%d" c tgt)
            row;
          Buffer.add_char b '\n')
        d.Regexe.Dfa.trans)
    (Array.to_list sc.Lexer.Scanner.dfas @ sc.Lexer.Scanner.layout_dfas);
  Buffer.contents b

let test_pinned_tables () =
  let host = Driver.effective_host in
  let grammars = List.map (fun x -> x.Driver.grammar) Driver.all_extensions in
  let tables =
    ("host", host)
    :: List.map
         (fun (x : Driver.extension) ->
           ("host+" ^ x.Driver.x_name, Cfg.compose host [ x.Driver.grammar ]))
         Driver.all_extensions
    @ [ ("full", Cfg.compose host grammars) ]
  in
  let reports =
    List.map
      (fun (x : Driver.extension) ->
        ("report " ^ x.Driver.x_name, Determinism.check host x.Driver.grammar))
      Driver.all_extensions
    @ [
        ( "report tuples",
          Determinism.check Cminus.Syntax.fragment Ext_tuples.Tuples_ext.grammar
        );
      ]
  in
  let digests =
    List.map
      (fun (name, cfg) ->
        (name, Digest.to_hex (Digest.string (dump_table (Lalr.build cfg)))))
      tables
    @ [
        ( "scanner full",
          Digest.to_hex
            (Digest.string
               (dump_scanner (Lalr.build (Cfg.compose host grammars)))) );
      ]
    @ List.map
        (fun (name, r) ->
          (name, Digest.to_hex (Digest.string (Fmt.str "%a" Determinism.pp_report r))))
        reports
  in
  let pinned =
    [
      ("host", "769417d28468470423a304324b7bbe95");
      ("host+matrix", "bffe11cdd7527a78ea9b3a1d408b2452");
      ("host+transform", "f575c5d8082ed4769f91f086cc29c70a");
      ("host+refptr", "769417d28468470423a304324b7bbe95");
      ("host+cilk", "29a437c97c7703389a0fde490540e692");
      ("full", "347d9022d5fea9c5d579dbc823ed0ede");
      ("scanner full", "6ca5256bb79a3037da5b9a168d89036b");
      ("report matrix", "9d38c20f37cdee0cd787337da2a0c85c");
      ("report transform", "c9e2458a7b4ec7d6bb18c96f5fdacad0");
      ("report refptr", "1cb732519e9f2323cf0f535faa82acf7");
      ("report cilk", "157b2dfdb1b1f73618ee2dbc91e2ab16");
      ("report tuples", "a84ec32c20ea45dbe3036e775995ca5b");
    ]
  in
  Alcotest.(check (list (pair string string))) "pinned digests" pinned digests

let suite =
  [
    Alcotest.test_case "FIRST/FOLLOW" `Quick test_first_follow;
    Alcotest.test_case "expr grammar LALR(1)" `Quick test_expr_lalr;
    Alcotest.test_case "parse precedence" `Quick test_parse_assoc_prec;
    Alcotest.test_case "parse parens" `Quick test_parse_paren;
    Alcotest.test_case "syntax error expected-set" `Quick test_parse_error_reporting;
    Alcotest.test_case "syntax error at EOF" `Quick test_parse_eof_error;
    Alcotest.test_case "dangling else conflict" `Quick test_dangling_else_conflict;
    Alcotest.test_case "LALR-not-SLR" `Quick test_lalr_not_slr;
    Alcotest.test_case "epsilon productions" `Quick test_epsilon;
    Alcotest.test_case "context-aware 'end'" `Quick test_context_aware_end;
    Alcotest.test_case "isComposable accepts marked ext" `Quick test_determinism_good;
    Alcotest.test_case "isComposable rejects tuples-style ext" `Quick test_determinism_tuples_fail;
    Alcotest.test_case "composition theorem (empirical)" `Quick test_composition_theorem;
    Alcotest.test_case "check_all" `Quick test_check_all;
    Alcotest.test_case "compose errors" `Quick test_compose_errors;
    Alcotest.test_case "pinned shipped tables and reports" `Quick test_pinned_tables;
    QCheck_alcotest.to_alcotest prop_lalr_matches_reference;
  ]
