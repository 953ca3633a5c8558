static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {2, -9};
static int f0(int a, int b) {
    int r = a ^ (b + 8);
    if (r == 4)
        r = r - 6;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    if (-12 >= (g0[(unsigned int)(-5) % 2u] / 8)) {
        {
            int w0 = 3;
            while (w0 > 0) {
                mix((unsigned int)(f0(0, (f0(w0, (-20 - 4)) < f0((-20 & -1), f0(-14, 17))))));
                mix(5u);
                int a0[6] = {7, 2};
                w0 = w0 - 1;
            }
        }
        v0 = v0 ^ f0(g0[(unsigned int)(f0(f0((4 + 1), (-20 / 9)), v0)) % 2u], ((((10 % 8) <= 4) << 5) << 7));
        mix((unsigned int)(v0));
    }
    int a1[3] = {8, 4};
    unsigned int v1 = (((unsigned int)g0[(unsigned int)((-11 >> 7)) % 2u] | ((unsigned int)v0 + (unsigned int)f0(7, 20))) / 6u);
    {
        int w1 = 2;
        while (w1 > 0) {
            v1 = ((unsigned int)w1 % 5u);
            w1 = w1 - 1;
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
