// fixture: process-input negatives. argv, getenv() and int main() in a
// comment or string are prose; a member getenv() call and names that
// merely contain the words are fine.
namespace fx {
struct Config;
const char* seed(const Config& c) { return c.getenv("SEED"); }
const char* doc() { return "never call getenv() or read argv"; }
int argv_count = 0;
int domain(int x);
}  // namespace fx
