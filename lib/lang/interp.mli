(** RFL compiler: lowers a checked program, once, to OCaml closures over
    the instrumented runtime.

    Shared accesses become {!Rf_runtime.Api} operations whose sites carry
    the source position; [let]-bound locals are plain OCaml state,
    invisible to the scheduler (like locals in the paper's 3-address-code
    model).  Loop back-edges and function entries perform event-free
    safepoints so local-only computation cannot starve the cooperative
    scheduler.

    Names are resolved at compile time, with the checker's scoping: one
    slot array per activation (thread body or function call) holds its
    locals, and shared variables, locks and functions are array indices.
    Site labels are built at compile time, but each node interns its
    {!Rf_util.Site.t} the first time it executes: site ids follow
    first-execution order, as campaign fingerprints require. *)

val compile : ?print:(string -> unit) -> Ast.program -> unit -> unit
(** [compile prog] compiles a program that passed {!Check}, then returns
    the main of one run: allocate the shared cells and then the locks in
    declaration order, fork every declared thread, join them all.  The
    main must run inside {!Rf_runtime.Engine.run}; it can be run any
    number of times, from any domain.  [print] receives the output of
    [print] statements (default: stdout). *)
