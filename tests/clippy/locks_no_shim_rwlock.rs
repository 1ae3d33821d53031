// Fixture: the `parking_lot` shim has no RwLock, so the fourth banned lock
// type cannot even be named.
use parking_lot::RwLock; //~ E0432
