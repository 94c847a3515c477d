(** The matrix extension's optimization-decision sites.

    The baseline lowering ({!Lower}) emits the unoptimized statements for
    each decision wrapped in one of these [Site] payloads; the extension's
    CIR passes ({!Passes}) consume them.  Each payload carries exactly the
    facts the decision needs — computed at lowering time, where the AST
    context (e.g. the whole-function alias analysis) is still in reach. *)

(** Which recognised loop shape an {!AutoPar} site wraps — each shape has
    its own promotion rule and remark wording (§III-C). *)
type autopar_kind =
  | Elemwise  (** elementwise loop: each flat index writes one element *)
  | MatmulRow  (** matrix-multiplication row loop *)
  | WithGen  (** with-loop genarray generator nest *)
  | FoldAcc
      (** with-loop fold nest: never promoted — iterations race on the
          single accumulator *)
  | MatrixMap of string
      (** matrixMap dispatch loop; carries the mapped function's name for
          the remark *)

(** An in-place reading of a slice with one [:] bound by a declaration
    ([Matrix t <1> s = m[i, j, :];]): every [s[k]] can read
    [m[i, j, k]] directly, the Fig 1 → Fig 3 rewrite (§III-A5). *)
type inplace = {
  var : string;  (** the declared slice variable *)
  fixed : Cir.Ir.expr list;
      (** the base's indices outside the free dimension, in order; atoms
          (variables or literals), so re-evaluating them is free *)
  free : int;  (** the base dimension the [:] selects *)
  decl : Support.Pos.span;  (** the slice declaration *)
  blocked : (string option * string) option;
      (** [None] when the lowering-time analysis proved every read of
          [var] equal to the base read; otherwise the blocking variable
          (if one is to blame) and the reason as prose *)
}

type Cir.Ir.site +=
  | FuseCopy of {
      result : string;  (** the with-loop's result matrix *)
      copy : string;  (** the library-style copy of it (payload decl) *)
      span : Support.Pos.span;
    }
      (** Payload: the library-style result copy (§III-A5) — comment,
          copy allocation + loop, release of [result].  Fusion deletes the
          payload and renames [copy] to [result] everywhere after it. *)
  | SliceAlias of {
      base : string;  (** the sliced matrix *)
      slice : string;  (** the copy the payload allocates *)
      identity : bool;  (** selection is the whole matrix *)
      safe : bool;  (** the alias analysis proved aliasing observable-free *)
      why : string;  (** the analysis verdict as prose *)
      inplace : inplace option;
          (** set for a declared slice with exactly one [:] *)
      span : Support.Pos.span;
    }
      (** Payload: the allocating copy of a slice.  Copy elimination
          drops it and redirects the slice variable's reads to [base]
          when [inplace] is proven; otherwise it replaces the payload
          with a retain of [base] (renaming [slice] to [base]) when
          [identity && safe]. *)
  | AutoPar of { kind : autopar_kind; span : Support.Pos.span }
      (** Payload: a sequential loop nest the auto-par pass may promote
          to a [ParFor] region. *)
