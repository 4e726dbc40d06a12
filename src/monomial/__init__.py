"""Exact computational toolkit for monomial representation rings of
finite solvable groups and the tame local constants attached to them.

Modules
-------
intlin      exact integer linear algebra (Smith normal form, lattices)
cyclotomic  exact arithmetic in cyclotomic fields, square roots of primes
groups      finite groups from multiplication tables, subgroup machinery
catalog     the built-in family of small test groups
characters  linear characters, class functions, the integer character
            table (induction and decomposition by class counts)
brauer      the induced-pair ring, its character map, and projectors
relations   the three families of basic relations and the kernel-lattice
            verification
type3       classification of maximal-subgroup configurations
extend      extending a compatible value function from pairs to virtual
            representations
tame        finite fields, Gauss sums, tame characters, root numbers,
            and the norm-transport identities
cli         the `monomial` command-line interface
"""

__version__ = "0.1.0"
